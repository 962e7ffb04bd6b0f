"""Hierarchy behaviour under cache-line-granular bank interleaving.

The Table 4 default (line-granular S-NUCA homing) is exercised here even
though the machine default is page-granular (DESIGN.md §7.2): the home bank
must rotate line by line and the directory must still be consistent.
"""

from repro.cache.hierarchy import CacheConfig, CacheHierarchy
from repro.cache.snuca import LLCOrganization, SnucaMapper
from repro.memory.address import AddressLayout
from repro.memory.distribution import DataDistribution, Granularity
from repro.noc.topology import Mesh2D

LAYOUT = AddressLayout(line_bytes=64, page_bytes=2048)
MESH = Mesh2D(6, 6)


def make_hierarchy():
    dist = DataDistribution(
        num_mcs=4, num_llc_banks=36, layout=LAYOUT,
        bank_granularity=Granularity.CACHE_LINE,
    )
    snuca = SnucaMapper(
        mesh=MESH, distribution=dist, organization=LLCOrganization.SHARED
    )
    return CacheHierarchy(
        36, snuca,
        l1_config=CacheConfig(512, 2, 32),
        l2_config=CacheConfig(2048, 2, 64),
    )


def test_consecutive_lines_home_in_consecutive_banks():
    h = make_hierarchy()
    homes = [
        h.access(core=0, paddr=line * 64, is_write=False)[0]
        for line in range(8)
    ]
    assert homes == list(range(8))


def test_page_spreads_over_32_banks():
    h = make_hierarchy()
    homes = {
        h.access(core=0, paddr=addr, is_write=False)[0]
        for addr in range(0, 2048, 64)
    }
    assert len(homes) == 32


def test_directory_tracks_lines_across_banks():
    h = make_hierarchy()
    h.access(core=1, paddr=0, is_write=False)
    h.access(core=2, paddr=0, is_write=False)
    assert h.access(core=3, paddr=0, is_write=True)[4] == (1, 2)
    # A different line in a different bank is unaffected.
    assert h.access(core=1, paddr=64, is_write=True)[4] == ()


def test_bank_local_hits_only_for_matching_lines():
    h = make_hierarchy()
    # Line 5 homes in bank 5: requester 5 gets a local hit the second time.
    h.access(core=5, paddr=5 * 64, is_write=False)
    h.access(core=5, paddr=5 * 64 + 2048, is_write=False)  # evict L1? no: different line
    assert h.access(core=17, paddr=5 * 64, is_write=False)[0] == 5
