"""The mapper: Algorithms 1 and 2, placement strategies."""

import numpy as np
import pytest

from repro.cache.snuca import LLCOrganization
from repro.core.mapping import Mapper, PlacementStrategy, SetAffinity
from repro.core.regions import default_partition
from repro.noc.topology import Mesh2D

PARTITION = default_partition(Mesh2D(6, 6))


def vec(*entries):
    return np.array(entries, dtype=float)


def make_mapper(organization=LLCOrganization.PRIVATE, **kwargs):
    return Mapper(PARTITION, organization, **kwargs)


def uniform_cai():
    return np.full(9, 1.0 / 9)


class TestPrivateAssignment:
    def test_pure_mc_affinity_goes_to_corner_region(self):
        mapper = make_mapper(balance=False)
        affinities = [
            SetAffinity(0, mai=vec(1, 0, 0, 0)),   # MC0 = top-left
            SetAffinity(1, mai=vec(0, 0, 1, 0)),   # MC2 = bottom-right
        ]
        schedule = mapper.assign(affinities)
        assert schedule.set_to_region[0] == 0
        assert schedule.set_to_region[1] == 8
        assert schedule.set_to_core[0] in PARTITION.nodes_in_region(0)

    def test_paper_example_assignment(self):
        mapper = make_mapper(balance=False)
        affinity = SetAffinity(0, mai=vec(0, 0, 0.5, 0.5))
        schedule = mapper.assign([affinity])
        assert schedule.set_to_region[0] == 7  # R8 per Table 2

    def test_shared_requires_cai(self):
        mapper = make_mapper(LLCOrganization.SHARED)
        with pytest.raises(ValueError):
            mapper.assign([SetAffinity(0, mai=vec(1, 0, 0, 0))])


class TestSharedAssignment:
    def test_alpha_zero_follows_memory(self):
        mapper = make_mapper(LLCOrganization.SHARED, balance=False)
        cai = np.zeros(9)
        cai[8] = 1.0  # cache data in R9
        affinity = SetAffinity(0, mai=vec(1, 0, 0, 0), cai=cai, alpha=0.0)
        schedule = mapper.assign([affinity])
        assert schedule.set_to_region[0] == 0  # memory wins

    def test_alpha_high_follows_cache(self):
        mapper = make_mapper(LLCOrganization.SHARED, balance=False)
        cai = np.zeros(9)
        cai[8] = 1.0
        affinity = SetAffinity(0, mai=vec(1, 0, 0, 0), cai=cai, alpha=0.95)
        schedule = mapper.assign([affinity])
        assert schedule.set_to_region[0] == 8  # cache wins

    def test_error_is_weighted_sum(self):
        mapper = make_mapper(LLCOrganization.SHARED)
        cai = uniform_cai()
        a_lo = SetAffinity(0, mai=vec(1, 0, 0, 0), cai=cai, alpha=0.0)
        a_hi = SetAffinity(0, mai=vec(1, 0, 0, 0), cai=cai, alpha=1.0)
        a_mid = SetAffinity(0, mai=vec(1, 0, 0, 0), cai=cai, alpha=0.5)
        for region in range(9):
            lo = mapper.set_error(a_lo, region)
            hi = mapper.set_error(a_hi, region)
            mid = mapper.set_error(a_mid, region)
            assert mid == pytest.approx(0.5 * lo + 0.5 * hi)


class TestBalanceIntegration:
    def test_hotspot_is_spread(self):
        """All sets wanting one region must still spread chip-wide."""
        mapper = make_mapper(balance=True)
        affinities = [
            SetAffinity(k, mai=vec(1, 0, 0, 0)) for k in range(90)
        ]
        schedule = mapper.assign(affinities)
        loads = {}
        for region in schedule.set_to_region.values():
            loads[region] = loads.get(region, 0) + 1
        assert max(loads.values()) <= 11  # ~90/9 + slack
        assert schedule.moved_fraction > 0.5

    def test_no_balance_keeps_hotspot(self):
        mapper = make_mapper(balance=False)
        affinities = [
            SetAffinity(k, mai=vec(1, 0, 0, 0)) for k in range(90)
        ]
        schedule = mapper.assign(affinities)
        assert all(r == 0 for r in schedule.set_to_region.values())
        assert schedule.moved_fraction == 0.0


class TestPlacement:
    def affinities(self, n=36):
        rng = np.random.default_rng(3)
        out = []
        for k in range(n):
            counts = rng.random(4)
            out.append(SetAffinity(k, mai=counts / counts.sum()))
        return out

    @pytest.mark.parametrize(
        "strategy",
        [
            PlacementStrategy.STABLE_RR,
            PlacementStrategy.RANDOM_BALANCED,
            PlacementStrategy.LEAST_LOADED,
        ],
    )
    def test_core_loads_balanced_within_region(self, strategy):
        mapper = make_mapper(placement=strategy)
        schedule = mapper.assign(self.affinities(144))
        region_core_loads = {}
        for set_id, core in schedule.set_to_core.items():
            region = schedule.set_to_region[set_id]
            region_core_loads.setdefault(region, {}).setdefault(core, 0)
            region_core_loads[region][core] += 1
        for region, loads in region_core_loads.items():
            if len(loads) > 1:
                assert max(loads.values()) - min(loads.values()) <= 2

    def test_stable_rr_is_deterministic(self):
        a = make_mapper(placement=PlacementStrategy.STABLE_RR, seed=1)
        b = make_mapper(placement=PlacementStrategy.STABLE_RR, seed=999)
        affs = self.affinities(72)
        assert a.assign(affs).set_to_core == b.assign(affs).set_to_core

    def test_core_always_in_assigned_region(self):
        mapper = make_mapper()
        schedule = mapper.assign(self.affinities(100))
        for set_id, core in schedule.set_to_core.items():
            region = schedule.set_to_region[set_id]
            assert core in PARTITION.nodes_in_region(region)


class TestValidation:
    def test_duplicate_ids_rejected(self):
        mapper = make_mapper()
        affinities = [
            SetAffinity(0, mai=vec(1, 0, 0, 0)),
            SetAffinity(0, mai=vec(0, 1, 0, 0)),
        ]
        with pytest.raises(ValueError):
            mapper.assign(affinities)

    def test_empty_input(self):
        schedule = make_mapper().assign([])
        assert schedule.set_to_core == {}

    def test_schedule_helpers(self):
        mapper = make_mapper(balance=False)
        schedule = mapper.assign([SetAffinity(0, mai=vec(1, 0, 0, 0))])
        core = schedule.core_of(0)
        assert 0 in schedule.sets_on_core(core)
        assert schedule.core_loads(36)[core] == 1


class TestAlphaWeightingAblation:
    def test_unweighted_matches_algorithm2_pseudocode(self):
        import numpy as np

        mapper = make_mapper(
            LLCOrganization.SHARED, balance=False, alpha_weighting=False
        )
        cai = np.zeros(9)
        cai[8] = 1.0
        # With unweighted eta1 + eta2, alpha is ignored entirely.
        lo = SetAffinity(0, mai=vec(1, 0, 0, 0), cai=cai, alpha=0.0)
        hi = SetAffinity(0, mai=vec(1, 0, 0, 0), cai=cai, alpha=0.95)
        for region in range(9):
            assert mapper.set_error(lo, region) == pytest.approx(
                mapper.set_error(hi, region)
            )

    def test_weighted_and_unweighted_agree_at_half(self):
        import numpy as np

        weighted = make_mapper(LLCOrganization.SHARED, balance=False)
        unweighted = make_mapper(
            LLCOrganization.SHARED, balance=False, alpha_weighting=False
        )
        cai = np.zeros(9)
        cai[3] = 1.0
        affinity = SetAffinity(0, mai=vec(0, 1, 0, 0), cai=cai, alpha=0.5)
        for region in range(9):
            # eta1+eta2 == 2 * (0.5*eta1 + 0.5*eta2): same argmin ordering.
            assert unweighted.set_error(affinity, region) == pytest.approx(
                2 * weighted.set_error(affinity, region)
            )
