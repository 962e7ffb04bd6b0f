"""Stack-distance analysis and the set-associative compile-time model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cme.stack import INFINITE, ReuseProfile, SetAssociativeModel, stack_distances


class TestStackDistances:
    def test_cold_accesses_are_infinite(self):
        assert stack_distances([1, 2, 3]) == [INFINITE] * 3

    def test_immediate_reuse_distance_zero(self):
        assert stack_distances([1, 1]) == [INFINITE, 0]

    def test_classic_example(self):
        # a b c b a: a's reuse sees {b, c} -> distance 2; b sees {c} -> 1.
        assert stack_distances([1, 2, 3, 2, 1]) == [
            INFINITE, INFINITE, INFINITE, 1, 2,
        ]

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_distance_bounded_by_distinct_lines(self, lines):
        distances = stack_distances(lines)
        distinct = len(set(lines))
        for d in distances:
            assert d == INFINITE or 0 <= d < distinct


class TestReuseProfile:
    def test_hit_counting_matches_lru_inclusion(self):
        """Fully-assoc LRU inclusion property: hits(C) is monotone in C."""
        lines = [1, 2, 3, 1, 2, 3, 4, 1]
        profile = ReuseProfile.from_lines(lines)
        hits = [profile.hits_for_capacity(c) for c in range(6)]
        assert hits == sorted(hits)

    def test_infinite_capacity_hits_everything_warm(self):
        lines = [1, 2, 1, 2, 1]
        profile = ReuseProfile.from_lines(lines)
        assert profile.hits_for_capacity(100) == 3
        assert profile.cold_misses == 2

    def test_fractions(self):
        profile = ReuseProfile.from_lines([1, 1, 1, 1])
        assert profile.hit_fraction(1) == 0.75
        assert profile.miss_fraction(1) == 0.25

    def test_empty_profile(self):
        profile = ReuseProfile()
        assert profile.hit_fraction(4) == 0.0


class TestSetAssociativeModel:
    def test_exactly_matches_simulator_cache(self):
        """The compile-time twin must agree with the runtime Cache."""
        from repro.cache.cache import HIT, Cache

        cache = Cache(size_bytes=1024, assoc=2, line_bytes=64)
        model = SetAssociativeModel(num_sets=8, assoc=2)
        import random

        rng = random.Random(11)
        for _ in range(500):
            line = rng.randrange(64)
            expected = cache.access(line * 64) == HIT
            assert model.access(line) == expected

    def test_single_set_is_lru_list(self):
        model = SetAssociativeModel(num_sets=1, assoc=2)
        assert not model.access(1)
        assert not model.access(2)
        assert not model.access(3)   # evicts 1
        assert model.access(2)
        assert not model.access(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            SetAssociativeModel(0, 2)

    def test_reset(self):
        model = SetAssociativeModel(4, 2)
        model.access(1)
        model.reset()
        assert not model.access(1)


@given(st.lists(st.integers(0, 30), min_size=1, max_size=150))
@settings(max_examples=40)
def test_fully_assoc_model_equals_stack_distance(lines):
    """distance < C  <=>  hit in a fully-associative cache of C lines."""
    capacity = 8
    model = SetAssociativeModel(num_sets=1, assoc=capacity)
    distances = stack_distances(lines)
    for line, distance in zip(lines, distances):
        hit = model.access(line)
        assert hit == (distance != INFINITE and distance < capacity)
