"""Round-robin distribution over MCs and LLC banks."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.faults import DegradedDistribution, FaultPlan
from repro.knl.modes import ClusterMode, KnlDistribution
from repro.memory.address import AddressLayout
from repro.memory.distribution import (
    DataDistribution,
    Granularity,
    RoundRobinDistribution,
    default_distribution,
)

LAYOUT = AddressLayout(line_bytes=64, page_bytes=2048)


class TestRoundRobin:
    def test_page_granularity_rotates_per_page(self):
        dist = RoundRobinDistribution(4, Granularity.PAGE, LAYOUT)
        assert dist.target(0) == 0
        assert dist.target(2047) == 0
        assert dist.target(2048) == 1
        assert dist.target(4 * 2048) == 0

    def test_line_granularity_rotates_per_line(self):
        dist = RoundRobinDistribution(36, Granularity.CACHE_LINE, LAYOUT)
        assert dist.target(0) == 0
        assert dist.target(63) == 0
        assert dist.target(64) == 1
        assert dist.target(36 * 64) == 0

    @given(st.integers(0, 2**34), st.integers(1, 64))
    def test_target_in_range(self, addr, n):
        dist = RoundRobinDistribution(n, Granularity.PAGE, LAYOUT)
        assert 0 <= dist.target(addr) < n

    def test_zero_targets_rejected(self):
        with pytest.raises(ValueError):
            RoundRobinDistribution(0, Granularity.PAGE, LAYOUT)


class TestDataDistribution:
    def test_default_is_page_mc_page_bank(self):
        dist = default_distribution(4, 36, LAYOUT)
        assert dist.mc_granularity is Granularity.PAGE

    def test_mc_and_bank_independent_granularities(self):
        dist = DataDistribution(
            num_mcs=4,
            num_llc_banks=36,
            layout=LAYOUT,
            mc_granularity=Granularity.PAGE,
            bank_granularity=Granularity.CACHE_LINE,
        )
        # Within one page the MC never changes but the bank does.
        mcs = {dist.mc_of(addr) for addr in range(0, 2048, 64)}
        banks = {dist.bank_of(addr) for addr in range(0, 2048, 64)}
        assert len(mcs) == 1
        assert len(banks) == 32

    def test_page_bank_distribution_keeps_page_together(self):
        dist = DataDistribution(
            num_mcs=4,
            num_llc_banks=36,
            layout=LAYOUT,
            bank_granularity=Granularity.PAGE,
        )
        banks = {dist.bank_of(addr) for addr in range(4096, 4096 + 2048, 64)}
        assert len(banks) == 1

    def test_uniform_coverage_over_many_pages(self):
        dist = default_distribution(4, 36, LAYOUT)
        counts = [0] * 4
        for page in range(400):
            counts[dist.mc_of(page * 2048)] += 1
        assert counts == [100, 100, 100, 100]

    def test_describe(self):
        dist = default_distribution(4, 36, LAYOUT)
        assert "mem=" in dist.describe() and "cache=" in dist.describe()


def _distributions():
    """Every distribution the machine or the compiler can be handed."""
    cases = {}
    for mc_gran in Granularity:
        for bank_gran in Granularity:
            cases[f"rr-{mc_gran.value}-{bank_gran.value}"] = DataDistribution(
                num_mcs=4, num_llc_banks=36, layout=LAYOUT,
                mc_granularity=mc_gran, bank_granularity=bank_gran,
            )
    cases["degraded"] = DegradedDistribution.from_plan(
        default_distribution(4, 36, LAYOUT),
        FaultPlan.parse(["mc:2:offline", "bank:3:offline", "bank:20:offline"]),
    )
    # A first-touch table that covers some pages and misses others.
    touched = {page: (page * 7) % 4 for page in range(0, 3000, 3)}
    for mode in ClusterMode:
        for label, table in (("", None), ("-first-touch", touched)):
            cases[f"knl-{mode.value}{label}"] = KnlDistribution(
                num_mcs=4, num_llc_banks=36, layout=LAYOUT, mode=mode,
                mesh_width=6, mesh_height=6, page_to_quadrant=table,
            )
    return cases


DISTRIBUTIONS = _distributions()


@pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
def test_batch_lookups_match_scalar(name):
    """The vectorized lookups the compiler uses agree with the scalar
    ones the machine uses, address by address."""
    dist = DISTRIBUTIONS[name]
    rng = np.random.default_rng(20180618)
    addrs = np.concatenate([
        rng.integers(0, 1 << 23, size=4096),
        rng.integers(0, 1 << 40, size=1024),
        np.arange(0, 1 << 20, 64),
    ]).astype(np.int64)
    scalar_mcs = [dist.mc_of(a) for a in addrs.tolist()]
    scalar_banks = [dist.bank_of(a) for a in addrs.tolist()]
    assert dist.mc_of_batch(addrs).tolist() == scalar_mcs
    assert dist.bank_of_batch(addrs).tolist() == scalar_banks
