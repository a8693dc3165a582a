"""Unit tests for the sequential multiway join oracle."""

import itertools
import json
import math
import random

import numpy as np
import pytest

from repro.core import HyperCubeAlgorithm
from repro.data import uniform_relation
from repro.mpc import run_one_round
from repro.query import parse_query, triangle_query
from repro.seq import (
    Database,
    Relation,
    RelationError,
    count_answers,
    evaluate,
    expected_answer_count,
    local_join,
)
from repro.seq.columnar import codes_fit, key_codes


def brute_force(query, db):
    """Reference join: enumerate all assignments over the active domain."""
    values = sorted(
        {v for rel in db for t in rel.tuples for v in t}
    ) or [0]
    answers = set()
    for assignment in itertools.product(values, repeat=query.num_variables):
        binding = dict(zip(query.variables, assignment))
        ok = True
        for atom in query.atoms:
            tup = tuple(binding[v] for v in atom.variables)
            if tup not in db.relation(atom.name).tuples:
                ok = False
                break
        if ok:
            answers.add(tuple(binding[v] for v in query.head))
    return frozenset(answers)


class TestEvaluate:
    def test_simple_join(self):
        q = parse_query("q(x, y, z) :- S1(x, z), S2(y, z)")
        db = Database.from_relations(
            [
                Relation.build("S1", [(0, 1), (1, 1), (2, 3)]),
                Relation.build("S2", [(5, 1), (6, 3)], domain_size=7),
            ]
        )
        assert evaluate(q, db) == frozenset(
            {(0, 5, 1), (1, 5, 1), (2, 6, 3)}
        )

    def test_matches_brute_force_on_random_instances(self):
        q = triangle_query()
        db = Database.from_relations(
            [
                uniform_relation("S1", 40, 12, seed=1),
                uniform_relation("S2", 40, 12, seed=2),
                uniform_relation("S3", 40, 12, seed=3),
            ]
        )
        assert evaluate(q, db) == brute_force(q, db)

    def test_chain_matches_brute_force(self):
        q = parse_query("q(a,b,c,d) :- R(a,b), S(b,c), T(c,d)")
        db = Database.from_relations(
            [
                uniform_relation("R", 30, 8, seed=4),
                uniform_relation("S", 30, 8, seed=5),
                uniform_relation("T", 30, 8, seed=6),
            ]
        )
        assert evaluate(q, db) == brute_force(q, db)

    def test_head_order_respected(self):
        q = parse_query("q(z, x) :- S(x, z)")
        db = Database.from_relations([Relation.build("S", [(1, 2)])])
        assert evaluate(q, db) == frozenset({(2, 1)})

    def test_empty_relation_gives_empty_join(self):
        q = parse_query("q(x, y) :- S(x), T(x, y)")
        db = Database.from_relations(
            [
                Relation.build("S", [], arity=1, domain_size=4),
                Relation.build("T", [(0, 1)]),
            ]
        )
        assert evaluate(q, db) == frozenset()

    def test_repeated_variable_in_atom(self):
        q = parse_query("q(x, y) :- S(x, x), T(x, y)")
        db = Database.from_relations(
            [
                Relation.build("S", [(0, 0), (1, 2)], domain_size=3),
                Relation.build("T", [(0, 2), (1, 2)], domain_size=3),
            ]
        )
        # Only (0,0) survives the S(x,x) constraint.
        assert evaluate(q, db) == frozenset({(0, 2)})

    def test_cartesian_product(self):
        q = parse_query("q(x, y) :- S(x), T(y)")
        db = Database.from_relations(
            [
                Relation.build("S", [(0,), (1,)], domain_size=3),
                Relation.build("T", [(2,)], domain_size=3),
            ]
        )
        assert evaluate(q, db) == frozenset({(0, 2), (1, 2)})

    def test_count_answers(self):
        q = parse_query("q(x, y) :- S(x), T(y)")
        db = Database.from_relations(
            [
                Relation.build("S", [(0,), (1,)], domain_size=3),
                Relation.build("T", [(0,), (2,)], domain_size=3),
            ]
        )
        assert count_answers(q, db) == 4


class TestLocalJoin:
    def test_missing_fragment_is_empty(self):
        q = parse_query("q(x, y, z) :- S1(x, z), S2(y, z)")
        assert local_join(q, {"S1": {(0, 1)}}, domain_size=4) == frozenset()

    def test_local_fragments_join(self):
        q = parse_query("q(x, y, z) :- S1(x, z), S2(y, z)")
        fragments = {"S1": {(0, 1)}, "S2": {(2, 1), (3, 0)}}
        assert local_join(q, fragments, domain_size=4) == frozenset({(0, 2, 1)})

    def test_array_fragments_join(self):
        q = parse_query("q(x, y, z) :- S1(x, z), S2(y, z)")
        fragments = {"S1": np.array([[0, 1]]), "S2": np.array([[2, 1], [3, 0]])}
        assert local_join(q, fragments, domain_size=4) == frozenset({(0, 2, 1)})

    def test_answers_are_plain_ints(self):
        q = parse_query("q(x, y, z) :- S1(x, z), S2(y, z)")
        fragments = {"S1": np.array([[0, 300]]), "S2": np.array([[700, 300]])}
        (answer,) = local_join(q, fragments, domain_size=1000)
        assert [type(v) for v in answer] == [int, int, int]
        json.dumps(sorted(answer))

    def test_answers_share_their_int_objects(self):
        """One int object per distinct value, not a fresh int per cell."""
        q = parse_query("q(x, y, z) :- S1(x, z), S2(y, z)")
        fragments = {"S1": np.array([[500, 700], [600, 700]]),
                     "S2": np.array([[500, 700]])}
        answers = local_join(q, fragments, domain_size=1000)
        assert len(answers) == 2
        zs = [answer[2] for answer in answers]
        assert zs[0] == 700 and zs[0] is zs[1]
        assert len({id(v) for answer in answers for v in answer}) == 3

    @pytest.mark.parametrize("as_array", [False, True])
    def test_repeated_variable_drops_inconsistent_rows(self, as_array):
        q = parse_query("q(x, y) :- S(x, x), T(x, y)")
        s, t = [(0, 0), (1, 2), (2, 1)], [(0, 3), (1, 3), (2, 3)]
        fragments = ({"S": np.array(s), "T": np.array(t)} if as_array
                     else {"S": set(s), "T": set(t)})
        assert local_join(q, fragments, domain_size=4) == frozenset({(0, 3)})

    def test_overflowing_codes_use_the_joint_rank(self):
        """Two shared variables over a 2**40 domain: n^2 overflows int64."""
        n = 2**40
        assert not codes_fit(n, 2)
        q = parse_query("q(x, y, z) :- R(x, y), S(y, z), T(z, x)")
        rng = random.Random(7)
        # v and v + 2**24 agree on v * 2**40 modulo 2**64: a wrapped
        # mixed-radix code would mistake one key for the other.
        values = [rng.randrange(n - 2**24) for _ in range(3)]
        values += [v + 2**24 for v in values] + [n - 1, 0]
        fragments = {
            name: {(rng.choice(values), rng.choice(values)) for _ in range(30)}
            for name in ("R", "S", "T")
        }
        db = Database.from_relations(
            Relation(name, 2, frozenset(tuples), n)
            for name, tuples in fragments.items()
        )
        expected = evaluate(q, db)
        assert expected
        assert local_join(q, fragments, n) == expected
        blocks = {name: np.array(sorted(t)) for name, t in fragments.items()}
        assert local_join(q, blocks, n) == expected

    def test_joint_rank_gives_equal_keys_equal_codes(self):
        n = 2**40
        probe = np.array([[n - 1, 5], [3, 4], [n - 1, 5]])
        build = np.array([[5, n - 1, 9], [4, 3, 9], [4, 4, 4]])
        probe_codes, build_codes = key_codes([(probe, [0, 1]), (build, [1, 0])],
                                             n)
        assert probe_codes[0] == probe_codes[2] == build_codes[0]
        assert probe_codes[1] == build_codes[1]
        assert build_codes[2] not in set(probe_codes.tolist())

    @pytest.mark.parametrize("as_array", [False, True])
    @pytest.mark.parametrize("fragment", [
        [(0, 4)],        # 4 is outside [0, 4)
        [(-1, 0)],
        [(0, 1, 2)],     # arity 3 for a binary atom
        [(0,)],
    ])
    def test_bad_fragments_raise(self, fragment, as_array):
        q = parse_query("q(x, y, z) :- S1(x, z), S2(y, z)")
        bad = np.array(fragment) if as_array else set(fragment)
        with pytest.raises(RelationError, match="S1"):
            local_join(q, {"S1": bad, "S2": {(0, 0)}}, domain_size=4)

    def test_empty_array_fragment_is_empty(self):
        q = parse_query("q(x, y) :- S(x), T(y)")
        fragments = {"S": np.empty((0, 1), dtype=np.int64), "T": {(1,)}}
        assert local_join(q, fragments, domain_size=4) == frozenset()


class TestEngineAnswers:
    @pytest.mark.parametrize("engine", ["reference", "batched"])
    def test_answers_are_plain_ints(self, engine):
        q = triangle_query()
        db = Database.from_relations(
            uniform_relation(name, 2000, 400, seed=i)
            for i, name in enumerate(("S1", "S2", "S3"))
        )
        result = run_one_round(
            HyperCubeAlgorithm(q, {"x1": 2, "x2": 2, "x3": 2}), db, 8,
            engine=engine, verify=True)
        assert result.is_complete and result.answers
        assert {type(v) for t in result.answers for v in t} == {int}
        json.dumps(sorted(result.answers))


class TestExpectedAnswerCount:
    def test_lemma_a1_formula(self):
        """E[|q(I)|] = n^(k-a) * prod m_j."""
        q = triangle_query()
        value = expected_answer_count(q, {"S1": 10, "S2": 20, "S3": 30}, 100)
        assert math.isclose(value, 100.0 ** (3 - 6) * 10 * 20 * 30)

    def test_missing_cardinality_rejected(self):
        q = triangle_query()
        with pytest.raises(Exception):
            expected_answer_count(q, {"S1": 10}, 100)

    def test_empirical_match_on_random_instances(self):
        """Average |q(I)| over random instances tracks Lemma A.1."""
        q = parse_query("q(x, y, z) :- S1(x, z), S2(y, z)")
        n, m = 40, 120
        predicted = expected_answer_count(q, {"S1": m, "S2": m}, n)
        total = 0
        trials = 30
        for seed in range(trials):
            db = Database.from_relations(
                [
                    uniform_relation("S1", m, n, seed=seed * 2 + 1),
                    uniform_relation("S2", m, n, seed=seed * 2 + 2),
                ]
            )
            total += count_answers(q, db)
        average = total / trials
        assert 0.8 * predicted <= average <= 1.2 * predicted
