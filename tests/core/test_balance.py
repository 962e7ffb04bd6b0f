"""Load balancing across regions."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.balance import balance_regions, is_balanced, region_loads
from repro.core.regions import default_partition
from repro.noc.topology import Mesh2D

PARTITION = default_partition(Mesh2D(6, 6))


def flat_errors(num_sets, num_regions=9):
    return np.zeros((num_sets, num_regions))


class TestBalancing:
    def test_already_balanced_untouched(self):
        assignment = {k: k % 9 for k in range(90)}
        result = balance_regions(assignment, flat_errors(90), PARTITION)
        assert result.moved_sets == 0
        assert result.set_to_region == assignment

    def test_single_hotspot_levelled(self):
        assignment = {k: 0 for k in range(90)}
        result = balance_regions(assignment, flat_errors(90), PARTITION)
        assert is_balanced(result.set_to_region, 9)
        assert result.moved_sets == 80

    def test_paper_example_donors_receivers(self):
        """R1, R5, R9 donate 2/8/2; R3 and R8 need 3/9 (Section 3.5)."""
        # Construct loads: avg 4 per region over 36 sets.
        loads = {0: 6, 1: 4, 2: 1, 3: 4, 4: 12, 5: 4, 6: 4, 7: 0, 8: 6}
        assignment = {}
        set_id = 0
        for region, count in loads.items():
            for _ in range(count):
                assignment[set_id] = region
                set_id += 1
        wait = sum(loads.values())
        result = balance_regions(
            assignment, flat_errors(wait), PARTITION
        )
        final = region_loads(result.set_to_region, 9)
        assert all(3 <= l <= 5 for l in final)

    def test_transfers_prefer_nearby_receivers(self):
        """A donor should feed its neighbour before a far receiver."""
        # Region 4 (center) overloaded; regions 1 (adjacent) and 8 (corner,
        # distance 2) equally needy.
        assignment = {}
        set_id = 0
        for region, count in {4: 20, 1: 0, 8: 0, 0: 5, 2: 5, 3: 5,
                              5: 5, 6: 5, 7: 5}.items():
            for _ in range(count):
                assignment[set_id] = region
                set_id += 1
        result = balance_regions(assignment, flat_errors(50), PARTITION)
        first_receivers = [t[2] for t in result.transfers[:2]]
        assert 1 in first_receivers  # the neighbour is served first

    def test_minimum_regret_sets_move_first(self):
        """The sets cheapest to relocate leave the donor first."""
        assignment = {k: 0 for k in range(18)}
        errors = np.zeros((18, 9))
        # Sets 0..8 are terrible everywhere but region 0; 9..17 indifferent.
        errors[:9, 1:] = 10.0
        result = balance_regions(assignment, errors, PARTITION)
        # 16 sets must leave region 0; the nine zero-regret sets (9..17)
        # go first, before any expensive one is touched.
        first_nine = [t[0] for t in result.transfers[:9]]
        assert set(first_nine).issubset(set(range(9, 18)))

    def test_counts_conserved(self):
        rng = np.random.default_rng(0)
        assignment = {k: int(rng.integers(0, 9)) for k in range(77)}
        result = balance_regions(assignment, flat_errors(77), PARTITION)
        assert len(result.set_to_region) == 77
        assert sum(region_loads(result.set_to_region, 9)) == 77

    @given(st.lists(st.integers(0, 8), min_size=9, max_size=200))
    @settings(max_examples=50)
    def test_always_balances_within_rounding(self, regions):
        assignment = dict(enumerate(regions))
        result = balance_regions(
            assignment, flat_errors(len(regions)), PARTITION
        )
        assert is_balanced(result.set_to_region, 9)

    def test_empty_assignment(self):
        result = balance_regions({}, flat_errors(0), PARTITION)
        assert result.set_to_region == {}
        assert result.moved_fraction() == 0.0


class TestHelpers:
    def test_region_loads(self):
        assert region_loads({0: 1, 1: 1, 2: 0}, 3) == [1, 2, 0]

    def test_is_balanced_slack(self):
        assert is_balanced({0: 0, 1: 1, 2: 2}, 3)
        assert not is_balanced({k: 0 for k in range(30)}, 3, slack=1)
