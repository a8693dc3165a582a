"""Unit tests for statistics: cardinalities, heavy hitters, bins, degrees."""

import json
import math
import random
from fractions import Fraction

import pytest

from repro.data import single_value_relation, uniform_relation, zipf_relation
from repro.query import parse_query, simple_join_query
from repro.seq import Database, Relation
from repro.stats import (
    BinCombination,
    DegreeStatistics,
    HeavyHitterStatistics,
    SimpleStatistics,
    StatisticsError,
    assignment_bin_exponent,
    bin_exponent,
    bin_index,
    canonical_subset,
    nonempty_subsets,
    combination_for_assignment,
    light_bin_index,
    num_heavy_bins,
)


class TestSimpleStatistics:
    def test_of_database(self):
        db = Database.from_relations(
            [Relation.build("S1", [(0, 1), (1, 2)], domain_size=16)]
        )
        stats = SimpleStatistics.of(db)
        assert stats.cardinality("S1") == 2
        assert stats.arity("S1") == 2
        assert stats.bits("S1") == 2 * 2 * 4.0

    def test_from_cardinalities(self):
        q = simple_join_query()
        stats = SimpleStatistics.from_cardinalities(
            q, {"S1": 100, "S2": 200}, domain_size=1024
        )
        assert stats.bits("S1") == 2 * 100 * 10.0
        assert stats.bits_vector(q) == {"S1": 2000.0, "S2": 4000.0}

    def test_missing_cardinality_rejected(self):
        q = simple_join_query()
        with pytest.raises(StatisticsError):
            SimpleStatistics.from_cardinalities(q, {"S1": 100}, 16)

    def test_unknown_relation_rejected(self):
        stats = SimpleStatistics(cardinalities={}, arities={}, domain_size=4)
        with pytest.raises(StatisticsError):
            stats.cardinality("S1")

    def test_total_bits(self):
        q = simple_join_query()
        stats = SimpleStatistics.from_cardinalities(
            q, {"S1": 10, "S2": 20}, domain_size=4
        )
        assert stats.total_bits == 2 * 10 * 2.0 + 2 * 20 * 2.0


class TestHeavyHitterStatistics:
    def test_single_value_relation_is_heavy(self):
        q = simple_join_query()
        db = Database.from_relations(
            [
                single_value_relation("S1", 100, 500, seed=1),
                uniform_relation("S2", 100, 500, seed=2),
            ]
        )
        stats = HeavyHitterStatistics.of(q, db, p=10)
        heavy = stats.heavy_hitters("S1", ("z",))
        assert heavy == {(0,): 100}
        assert stats.is_heavy("S1", ("z",), (0,))
        assert stats.frequency("S1", ("z",), (0,)) == 100

    def test_uniform_relation_has_no_heavy_hitters_on_single_vars(self):
        q = simple_join_query()
        db = Database.from_relations(
            [
                uniform_relation("S1", 200, 5000, seed=3),
                uniform_relation("S2", 200, 5000, seed=4),
            ]
        )
        stats = HeavyHitterStatistics.of(q, db, p=8)
        # threshold = 200/8 = 25; uniform values over 5000 can't reach it.
        assert not stats.heavy_hitters("S1", ("z",))
        assert not stats.heavy_hitters("S2", ("z",))

    def test_light_values_return_none(self):
        q = simple_join_query()
        db = Database.from_relations(
            [
                uniform_relation("S1", 100, 1000, seed=5),
                uniform_relation("S2", 100, 1000, seed=6),
            ]
        )
        stats = HeavyHitterStatistics.of(q, db, p=4)
        assert stats.frequency("S1", ("z",), (99999,)) is None
        assert stats.frequency_or_light_bound("S1", ("z",), (99999,)) == 25.0

    def test_pair_subsets_tracked(self):
        """Heavy hitters exist for every nonempty subset of atom variables."""
        q = simple_join_query()
        tuples = [(0, 0)] * 1 + [(i, 0) for i in range(50)] + [(0, i) for i in range(50)]
        db = Database.from_relations(
            [
                Relation.build("S1", tuples, domain_size=64),
                uniform_relation("S2", 50, 64, seed=7),
            ]
        )
        stats = HeavyHitterStatistics.of(q, db, p=4)
        assert ("S1", ("x", "z")) in stats.hitters
        assert ("S1", ("x",)) in stats.hitters
        assert ("S1", ("z",)) in stats.hitters

    def test_threshold_factor(self):
        q = simple_join_query()
        db = Database.from_relations(
            [
                zipf_relation("S1", 300, 500, skew=1.0, seed=8),
                uniform_relation("S2", 300, 5000, seed=9),
            ]
        )
        strict = HeavyHitterStatistics.of(q, db, p=8, threshold_factor=1.0)
        loose = HeavyHitterStatistics.of(q, db, p=8, threshold_factor=0.25)
        assert loose.total_heavy_count() >= strict.total_heavy_count()

    def test_bad_p_rejected(self):
        q = simple_join_query()
        db = Database.from_relations(
            [
                uniform_relation("S1", 10, 100, seed=1),
                uniform_relation("S2", 10, 100, seed=2),
            ]
        )
        with pytest.raises(StatisticsError):
            HeavyHitterStatistics.of(q, db, p=0)

    def test_heavy_count_is_bounded(self):
        """At most p heavy hitters per (relation, subset) (Section 1)."""
        q = simple_join_query()
        db = Database.from_relations(
            [
                zipf_relation("S1", 400, 500, skew=1.5, seed=10),
                zipf_relation("S2", 400, 500, skew=1.5, seed=11),
            ]
        )
        p = 16
        stats = HeavyHitterStatistics.of(q, db, p=p)
        for (_name, _subset), hitters in stats.hitters.items():
            assert len(hitters) < p


def frequency_definition(query, db, p, threshold_factor=1.0):
    """Section 4.2's heavy hitters straight from ``Relation.frequencies``."""
    hitters = {}
    for atom in query.atoms:
        relation = db.relation(atom.name)
        threshold = threshold_factor * relation.cardinality / p
        for subset in nonempty_subsets(canonical_subset(atom.variables)):
            positions = [atom.positions_of(var)[0] for var in subset]
            hitters[(atom.name, subset)] = {
                key: count
                for key, count in relation.frequencies(positions).items()
                if count > threshold
            }
    return hitters


class TestHeavyHitterKernel:
    """The ``np.unique`` counting kernel against the ``Counter`` definition."""

    @pytest.mark.parametrize("query", [
        "q(x, y, z) :- S1(x, z), S2(y, z)",
        "q(x, y, z) :- R(x, y), S(y, z), T(z, x)",
        "q(x, y) :- S(x, x, y), T(y, x)",      # repeated variable
    ])
    @pytest.mark.parametrize("threshold_factor", [1.0, 0.5, 2.5])
    def test_matches_the_frequency_definition(self, query, threshold_factor):
        q = parse_query(query)
        rng = random.Random(f"{query}:{threshold_factor}")
        for trial in range(15):
            n = rng.choice([2, 3, 7, 40, 2**40])
            hot = [rng.randrange(n) for _ in range(3)]
            relations = [
                Relation(atom.name, atom.arity, frozenset(
                    tuple(rng.choice(hot) if rng.random() < 0.6
                          else rng.randrange(n) for _ in range(atom.arity))
                    for _ in range(rng.randrange(60))
                ), n)
                for atom in q.atoms
            ]
            db = Database.from_relations(relations)
            p = rng.choice([1, 2, 3, 8])
            stats = HeavyHitterStatistics.of(q, db, p, threshold_factor)
            expected = frequency_definition(q, db, p, threshold_factor)
            assert stats.hitters == expected
            # Same insertion order as the Counter, so consumers that
            # iterate the hitters see them in the same order.
            for key, hitters in expected.items():
                assert list(stats.hitters[key].items()) == list(hitters.items())

    def test_count_equal_to_the_threshold_is_light(self):
        q = parse_query("q(x, y) :- S(x, y), T(y)")
        ties = [(x, y) for x in (1, 2) for y in range(4)]
        db = Database.from_relations([
            Relation.build("S", ties, domain_size=9),
            Relation.build("T", [(0,)], domain_size=9),
        ])
        stats = HeavyHitterStatistics.of(q, db, p=2)
        # m = 8, p = 2: both x values occur exactly 8 / 2 = 4 times.
        assert stats.threshold("S") == 4.0
        assert stats.heavy_hitters("S", ("x",)) == {}
        db = Database.from_relations([
            Relation.build("S", ties + [(2, 4)], domain_size=9),
            Relation.build("T", [(0,)], domain_size=9),
        ])
        stats = HeavyHitterStatistics.of(q, db, p=2)   # threshold 4.5
        assert stats.heavy_hitters("S", ("x",)) == {(2,): 5}
        assert stats.heavy_hitters("T", ("y",)) == {(0,): 1}

    def test_keys_and_frequencies_are_plain_ints(self):
        q = simple_join_query()
        db = Database.from_relations([
            zipf_relation("S1", 400, 500, skew=1.5, seed=10),
            zipf_relation("S2", 400, 500, skew=1.5, seed=11),
        ])
        stats = HeavyHitterStatistics.of(q, db, p=8)
        assert stats.total_heavy_count()
        for hitters in stats.hitters.values():
            for key, count in hitters.items():
                assert {type(v) for v in key} <= {int}
                assert type(count) is int
        json.dumps([[list(k), c] for h in stats.hitters.values()
                    for k, c in h.items()])


class TestBins:
    def test_num_heavy_bins(self):
        assert num_heavy_bins(16) == 4
        assert num_heavy_bins(17) == 5
        assert light_bin_index(16) == 5

    def test_bin_index_boundaries(self):
        """Bin b holds m/2^(b-1) >= freq > m/2^b."""
        p, m = 16, 1000
        assert bin_index(m, 1000, p) == 1
        assert bin_index(m, 501, p) == 1
        assert bin_index(m, 500, p) == 2
        assert bin_index(m, 251, p) == 2
        assert bin_index(m, 250, p) == 3
        # Light values land in the light bin.
        assert bin_index(m, 10, p) == light_bin_index(p)

    def test_bin_index_validation(self):
        with pytest.raises(ValueError):
            bin_index(100, 0, 16)
        with pytest.raises(ValueError):
            bin_index(100, 101, 16)

    def test_bin_exponent_values(self):
        p = 16
        assert bin_exponent(1, p) == 0
        assert bin_exponent(light_bin_index(p), p) == 1
        # beta_2 = log_p 2 = 1/4 for p = 16.
        assert abs(float(bin_exponent(2, p)) - 0.25) < 1e-9

    def test_bin_exponents_increase(self):
        p = 64
        exponents = [bin_exponent(b, p) for b in range(1, light_bin_index(p) + 1)]
        assert exponents == sorted(exponents)
        assert exponents[0] == 0
        assert exponents[-1] == 1

    def test_assignment_bin_exponent_light_is_one(self):
        q = simple_join_query()
        db = Database.from_relations(
            [
                uniform_relation("S1", 100, 1000, seed=12),
                uniform_relation("S2", 100, 1000, seed=13),
            ]
        )
        stats = HeavyHitterStatistics.of(q, db, p=4)
        assert assignment_bin_exponent(stats, "S1", ("z",), (5,)) == 1

    def test_combination_for_assignment(self):
        q = simple_join_query()
        db = Database.from_relations(
            [
                single_value_relation("S1", 64, 500, seed=1),
                uniform_relation("S2", 64, 5000, seed=2),
            ]
        )
        stats = HeavyHitterStatistics.of(q, db, p=8)
        combo = combination_for_assignment(q, stats, {"z": 0})
        assert combo.variables == frozenset({"z"})
        assert combo.beta("S1") == 0  # the whole relation sits on z=0
        assert combo.beta("S2") == 1  # light in S2

    def test_combination_dominance(self):
        small = BinCombination.build({"z"}, {"S1": Fraction(0)})
        large = BinCombination.build({"z", "x"}, {"S1": Fraction(1, 2)})
        assert large.dominates(small)
        assert not small.dominates(large)
        assert not large.dominates(large)

    def test_empty_combination(self):
        empty = BinCombination.empty()
        assert empty.variables == frozenset()
        assert empty.beta("anything") == 0


class TestDegreeStatistics:
    def test_degree_maps(self):
        q = simple_join_query()
        db = Database.from_relations(
            [
                Relation.build("S1", [(0, 1), (1, 1), (2, 2)], domain_size=4),
                Relation.build("S2", [(0, 1), (3, 3)], domain_size=4),
            ]
        )
        stats = DegreeStatistics.of(q, db, {"z"})
        assert stats.frequency("S1", (1,)) == 2
        assert stats.frequency("S1", (2,)) == 1
        assert stats.frequency("S1", (3,)) == 0
        assert stats.cardinality("S1") == 3

    def test_empty_subset_records_cardinality(self):
        q = simple_join_query()
        db = Database.from_relations(
            [
                Relation.build("S1", [(0, 1)], domain_size=4),
                Relation.build("S2", [(0, 1), (1, 1)], domain_size=4),
            ]
        )
        stats = DegreeStatistics.of(q, db, {"x"})
        # S2 does not contain x: its map holds () -> cardinality.
        assert stats.frequency("S2", ()) == 2
        assert stats.subset_of("S2") == ()

    def test_bits(self):
        q = simple_join_query()
        db = Database.from_relations(
            [
                Relation.build("S1", [(0, 1), (1, 1)], domain_size=16),
                Relation.build("S2", [(0, 1)], domain_size=16),
            ]
        )
        stats = DegreeStatistics.of(q, db, {"z"})
        assert math.isclose(stats.bits("S1", (1,)), 2 * 2 * 4.0)

    def test_unknown_variable_rejected(self):
        q = simple_join_query()
        db = Database.from_relations(
            [
                Relation.build("S1", [(0, 1)], domain_size=4),
                Relation.build("S2", [(0, 1)], domain_size=4),
            ]
        )
        with pytest.raises(StatisticsError):
            DegreeStatistics.of(q, db, {"w"})


class TestCanonicalSubset:
    def test_sorted_and_deduplicated(self):
        assert canonical_subset(["z", "x", "z"]) == ("x", "z")
        assert canonical_subset([]) == ()
