"""Unit tests for the workload generators."""

import hashlib

import pytest

from repro.data import (
    GeneratorError,
    degree_relation,
    graph_edges,
    matching_relation,
    planted_heavy_relation,
    single_value_relation,
    uniform_relation,
    zipf_relation,
)


class TestUniform:
    def test_cardinality_and_domain(self):
        rel = uniform_relation("R", 500, 1000, seed=1)
        assert rel.cardinality == 500
        assert rel.domain_size == 1000
        assert rel.arity == 2

    def test_deterministic(self):
        assert uniform_relation("R", 100, 500, seed=7).tuples == uniform_relation(
            "R", 100, 500, seed=7
        ).tuples

    def test_seed_changes_content(self):
        a = uniform_relation("R", 100, 500, seed=1).tuples
        b = uniform_relation("R", 100, 500, seed=2).tuples
        assert a != b

    def test_impossible_cardinality_rejected(self):
        with pytest.raises(GeneratorError):
            uniform_relation("R", 100, 4, arity=1)

    def test_arity_one(self):
        rel = uniform_relation("R", 10, 100, arity=1, seed=1)
        assert all(len(t) == 1 for t in rel.tuples)


class TestMatching:
    def test_each_value_once_per_column(self):
        rel = matching_relation("R", 300, 1000, seed=2)
        for position in range(rel.arity):
            freq = rel.frequencies([position])
            assert all(count == 1 for count in freq.values())

    def test_needs_large_domain(self):
        with pytest.raises(GeneratorError):
            matching_relation("R", 100, 50)


class TestZipf:
    def test_zero_skew_is_uniform_like(self):
        rel = zipf_relation("R", 200, 1000, skew=0.0, seed=3)
        assert rel.cardinality == 200

    def test_high_skew_concentrates(self):
        rel = zipf_relation("R", 500, 1000, skew=1.5, seed=4)
        freq = rel.frequencies([1])
        top = max(freq.values())
        assert top > 50  # rank-1 value dominates

    def test_skewed_position_respected(self):
        rel = zipf_relation(
            "R", 300, 600, skew=1.5, skewed_positions=(0,), seed=5
        )
        freq0 = rel.frequencies([0])
        freq1 = rel.frequencies([1])
        assert max(freq0.values()) > max(freq1.values())

    def test_bad_position_rejected(self):
        with pytest.raises(GeneratorError):
            zipf_relation("R", 10, 100, skewed_positions=(5,))

    def test_unrealizable_rejected(self):
        # Extreme skew on both positions of a tiny domain cannot produce
        # many distinct tuples.
        with pytest.raises(GeneratorError):
            zipf_relation(
                "R", 90, 10, skew=30.0, skewed_positions=(0, 1), seed=6
            )

    @pytest.mark.parametrize(
        "kwargs, fingerprint",
        [
            (
                dict(name="S", cardinality=2000, domain_size=500, skew=1.2,
                     seed=7),
                "5f3e4dd31698a47b1adfc4aea24ea6dc"
                "4e372acae213fbec7b0b2266ea858c9c",
            ),
            (
                dict(name="R", cardinality=300, domain_size=40, arity=3,
                     skew=0.8, skewed_positions=(0, 2), seed=3),
                "3d2690170b1c030a2201d8e4645e2611"
                "2b5149ace4e0f875a6e5e490a5d71c41",
            ),
        ],
    )
    def test_golden_fingerprint(self, kwargs, fingerprint):
        # Pins the exact tuple set drawn for a fixed seed: every golden
        # load number downstream depends on it.
        rel = zipf_relation(**kwargs)
        digest = hashlib.sha256(repr(sorted(rel.tuples)).encode()).hexdigest()
        assert digest == fingerprint


class TestSingleValue:
    def test_pinned_column(self):
        rel = single_value_relation("R", 50, 200, fixed_position=1,
                                    fixed_value=9, seed=7)
        assert all(t[1] == 9 for t in rel.tuples)
        assert rel.cardinality == 50

    def test_too_many_rejected(self):
        with pytest.raises(GeneratorError):
            single_value_relation("R", 100, 10, arity=2)


class TestDegreeRelation:
    def test_exact_degrees(self):
        degrees = {3: 10, 5: 4, 7: 1}
        rel = degree_relation("R", degrees, 64, seed=8)
        freq = rel.frequencies([1])
        assert freq[(3,)] == 10
        assert freq[(5,)] == 4
        assert freq[(7,)] == 1
        assert rel.cardinality == 15

    def test_degree_position_zero(self):
        rel = degree_relation("R", {2: 5}, 64, degree_position=0, seed=9)
        assert rel.frequencies([0])[(2,)] == 5

    def test_validation(self):
        with pytest.raises(GeneratorError):
            degree_relation("R", {100: 1}, 64)
        with pytest.raises(GeneratorError):
            degree_relation("R", {1: 100}, 64)


class TestPlantedHeavy:
    def test_heavy_values_dominate(self):
        rel = planted_heavy_relation(
            "R", 400, 800, heavy_values=[0, 1], heavy_fraction=0.5, seed=10
        )
        freq = rel.frequencies([1])
        heavy_mass = freq.get((0,), 0) + freq.get((1,), 0)
        assert heavy_mass >= 0.4 * 400
        assert rel.cardinality == 400

    def test_zero_fraction_is_uniform(self):
        rel = planted_heavy_relation(
            "R", 100, 500, heavy_values=[0], heavy_fraction=0.0, seed=11
        )
        assert rel.cardinality == 100

    def test_validation(self):
        with pytest.raises(GeneratorError):
            planted_heavy_relation("R", 10, 100, heavy_values=[])
        with pytest.raises(GeneratorError):
            planted_heavy_relation(
                "R", 10, 100, heavy_values=[0], heavy_fraction=1.5
            )


class TestGraphEdges:
    def test_cardinality(self):
        rel = graph_edges("E", 100, 400, seed=12)
        assert rel.cardinality == 400
        assert rel.domain_size == 100

    def test_hubs_attract_edges(self):
        rel = graph_edges(
            "E", 200, 600, hub_count=2, hub_fraction=0.5, seed=13
        )
        out_deg = rel.frequencies([0])
        in_deg = rel.frequencies([1])
        hub_mass = sum(
            out_deg.get((h,), 0) + in_deg.get((h,), 0) for h in (0, 1)
        )
        assert hub_mass >= 0.4 * 600

    def test_too_many_edges_rejected(self):
        with pytest.raises(GeneratorError):
            graph_edges("E", 3, 100)
