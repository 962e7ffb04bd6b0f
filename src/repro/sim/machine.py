"""The manycore machine: cores + caches + NoC + memory controllers.

``Manycore.access`` times one load/store whose cache side
:class:`~repro.cache.hierarchy.CacheHierarchy` has already settled, and
returns ``(completion, mc, bank)``: the cycle the access completes, the
memory controller an LLC miss went to (-1 for none) and the home LLC bank
an L1 miss consulted (-1 on an L1 hit).  One L1 miss is a single walk over
plain ints -- the hierarchy's outcome tuple, then each network leg and
the MC -- with no object built along the way.  Both engines time every L1
miss here.  The message sequences follow Section 2:

Private LLC
    L1 miss -> local L2 (no NoC).  L2 miss -> request to the address's MC,
    DRAM access, data response back to the node.

Shared LLC (S-NUCA)
    L1 miss -> request to the *home bank* (address-determined; possibly
    remote).  Bank hit -> data response bank -> core.  Bank miss -> request
    bank -> MC, DRAM, fill MC -> bank, then data bank -> core.

Dirty LLC evictions ride the network as writeback messages and coherence
invalidations as control messages; both add traffic (contention) without
extending the triggering access's critical path.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.snuca import SnucaMapper
from repro.memory.controller import MemoryController
from repro.memory.translation import IdentityTranslation
from repro.noc.analytic import AnalyticNetwork
from repro.noc.network import BaseNetwork, WormholeNetwork
from repro.noc.packet import CONTROL_FLITS, flits_for_payload

from .config import NetworkModel, SystemConfig
from .stats import RunStats


class Manycore:
    """One simulated machine instance.

    ``telemetry`` (a :class:`repro.obs.Telemetry`, optional) attaches the
    observability layer: the machine allocates the run's spatial
    accumulators, wires the network's per-link/per-packet recording, and
    :meth:`collect_spatial` snapshots per-component counters into them.
    Telemetry never forces the engine off its batched fast path.
    """

    def __init__(
        self,
        config: SystemConfig,
        translation: Optional[object] = None,
        telemetry: Optional[object] = None,
        faults: Optional[object] = None,
    ):
        self.config = config
        self.mesh = config.build_mesh()
        self.layout = config.layout()
        self.distribution = config.build_distribution()
        # Fault injection: an empty plan is normalized to None so every
        # zero-fault machine takes literally the pristine code paths.
        if faults is not None and faults.is_empty:
            faults = None
        self.fault_plan = faults
        self.degraded = None
        if faults is not None:
            from repro.faults import DegradedDistribution, DegradedTopology

            self.degraded = DegradedTopology(
                self.mesh, faults, router_delay=config.router_delay
            )
            # Re-interleave addresses off dead MCs/banks *before* the
            # S-NUCA mapper is built so home lookups (scalar and batch)
            # agree on the degraded distribution.
            self.distribution = DegradedDistribution.from_plan(
                self.distribution, faults
            )
        self.snuca = SnucaMapper(
            mesh=self.mesh,
            distribution=self.distribution,
            organization=config.llc_organization,
        )
        self.hierarchy = CacheHierarchy(
            num_nodes=self.mesh.num_nodes,
            snuca=self.snuca,
            l1_config=config.l1_config(),
            l2_config=config.l2_config(),
        )
        self.network = self._build_network(config)
        self.mcs: List[MemoryController] = [
            MemoryController(
                index=i,
                timings=config.dram,
                layout=self.layout,
                buffer_entries=config.mc_buffer_entries,
                num_channels=config.num_mcs,
            )
            for i in range(config.num_mcs)
        ]
        if self.degraded is not None:
            self.network.apply_faults(self.degraded)
            for index, factor in self.degraded.mc_throttle.items():
                self.mcs[index].throttle = factor
        self.translation = translation or IdentityTranslation(self.layout)
        # Per-miss constants of access().
        self._data_flits = flits_for_payload(config.l2_line_bytes)
        self._mc_nodes = [self.mesh.mc_node(i) for i in range(config.num_mcs)]
        self.telemetry = telemetry
        self.spatial = None
        if telemetry is not None:
            self.spatial = telemetry.ensure_spatial(
                self.mesh.num_nodes, config.num_mcs
            )
            self.network.set_telemetry(telemetry)
            if self.fault_plan is not None:
                plan_hash = self.fault_plan.plan_hash()
                for spec in self.fault_plan.to_specs():
                    telemetry.events.emit(
                        "fault.inject", spec=spec, plan_hash=plan_hash
                    )

    @staticmethod
    def _build_network(config: SystemConfig) -> BaseNetwork:
        mesh = config.build_mesh()
        if config.network_model is NetworkModel.WORMHOLE:
            return WormholeNetwork(mesh, router_delay=config.router_delay)
        if config.network_model is NetworkModel.ANALYTIC:
            return AnalyticNetwork(mesh, router_delay=config.router_delay)
        return WormholeNetwork(
            mesh, router_delay=config.router_delay, zero_latency=True
        )

    # ------------------------------------------------------------------
    def access(
        self,
        core: int,
        paddr: int,
        walk: Optional[Tuple[int, bool, int, int, Tuple[int, ...]]],
        time: int,
    ) -> Tuple[int, int, int]:
        """Time one access issued by ``core`` at ``time``.

        The access's cache side is already settled: ``walk`` is ``None``
        for an L1 hit, else the tuple
        :meth:`~repro.cache.hierarchy.CacheHierarchy.access` returns for
        the miss.  Returns ``(completion, mc, bank)``; see the module
        docstring.  Banks sit 1:1 with mesh nodes, so a bank index is
        also its node.
        """
        cfg = self.config
        t = time + cfg.l1_latency  # the L1 lookup precedes any miss
        if walk is None:
            return t, -1, -1
        bank, llc_hit, llc_victim, forward, invalidate = walk
        transfer = self.network.transfer
        data_flits = self._data_flits
        # Leg 1: core -> home bank (shared LLC only; private banks are local).
        if bank != core:
            t = transfer(core, bank, t, CONTROL_FLITS)
        t += cfg.llc_latency
        mc = -1
        if not llc_hit:
            mc = self.distribution.mc_of(paddr)
            mc_node = self._mc_nodes[mc]
            # Leg 2: bank -> MC request.
            if mc_node != bank:
                t = transfer(bank, mc_node, t, CONTROL_FLITS)
            t = self.mcs[mc].access(paddr, t)
            # Leg 3: the MC responds *directly to the requester* (standard
            # directory-protocol fill), so the requesting core's proximity
            # to the MC shortens the heavyweight data leg -- the effect the
            # MAI/MAC placement exploits (Figure 1b/1d).  The home bank is
            # filled off the critical path.
            if bank != core and mc_node != bank:
                transfer(mc_node, bank, t, data_flits)
            if mc_node != core:
                t = transfer(mc_node, core, t, data_flits)
        elif forward >= 0:
            # Dirty copy in another L1: bank forwards, owner sends the data.
            if forward != bank:
                transfer(bank, forward, t, CONTROL_FLITS)
            if forward != core:
                t = transfer(forward, core, t, data_flits)
        elif bank != core:
            # Leg 4: bank -> core data response.
            t = transfer(bank, core, t, data_flits)
        # Off-critical-path traffic: LLC writeback of a dirty victim...
        if llc_victim >= 0:
            victim_node = self._mc_nodes[self.distribution.mc_of(llc_victim)]
            if victim_node != bank:
                transfer(bank, victim_node, t, data_flits)
        # ...and coherence invalidations to the remote sharers the
        # hierarchy already dropped.
        for node in invalidate:
            if node != bank:
                transfer(bank, node, t, CONTROL_FLITS)
        return t, mc, bank

    # ------------------------------------------------------------------
    def translate_batch(self, vaddrs: np.ndarray) -> np.ndarray:
        """Translate a stream of virtual addresses in stream order.

        The page-allocation side effects (first-touch faults) happen in
        exactly the order a scalar access loop would trigger them.
        """
        return self.translation.translate_batch(vaddrs)

    # ------------------------------------------------------------------
    def home_banks_batch(self, paddrs: np.ndarray) -> np.ndarray:
        """Vectorized home-bank indices of a physical address stream.

        Shared LLC: the S-NUCA address-determined bank.  Private LLC: every
        address a core touches homes in the core's own bank, so the stream's
        home distribution is meaningless per address -- callers pass the
        issuing core instead (the engine handles that fold).
        """
        return self.distribution.bank_of_batch(paddrs)

    def collect_spatial(self):
        """Refresh and return the run's spatial accumulators.

        Per-component counters (per-node L1, per-bank LLC, per-MC) are
        snapshots taken here; live stream accumulators (bank touches, link
        flits) were recorded as the run executed.  Requires telemetry to
        have been attached at construction.
        """
        spatial = self.spatial
        if spatial is None:
            raise RuntimeError(
                "no telemetry attached; pass telemetry= to Manycore()"
            )
        l1_acc, l1_hit = self.hierarchy.per_node_l1_stats()
        spatial.tile_accesses[:] = l1_acc
        spatial.tile_l1_hits[:] = l1_hit
        bank_acc, bank_hit = self.hierarchy.per_bank_llc_stats()
        spatial.bank_requests[:] = bank_acc
        spatial.bank_hits[:] = bank_hit
        for i, mc in enumerate(self.mcs):
            spatial.mc_requests[i] = mc.stats.requests
            spatial.mc_queue_delay[i] = mc.stats.total_queue_delay
        return spatial

    # ------------------------------------------------------------------
    def fill_stats(self, stats: RunStats) -> None:
        """Copy component counters into a :class:`RunStats`."""
        net = self.network.stats
        stats.network_packets = net.packets
        stats.network_total_latency = net.total_latency
        stats.network_total_hops = net.total_hops
        stats.network_flit_hops = net.flit_hops
        l1_acc, l1_hit = self.hierarchy.aggregate_l1_stats()
        stats.l1_accesses, stats.l1_hits = l1_acc, l1_hit
        llc_acc, llc_hit = self.hierarchy.aggregate_llc_stats()
        stats.llc_accesses, stats.llc_hits = llc_acc, llc_hit
        stats.dram_accesses = sum(mc.channel.stats.reads for mc in self.mcs)
        stats.dram_row_hits = sum(mc.channel.stats.row_hits for mc in self.mcs)
