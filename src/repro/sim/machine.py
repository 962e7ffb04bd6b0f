"""The manycore machine: cores + caches + NoC + memory controllers.

``Manycore.access`` walks one load/store through the full hierarchy and
returns its completion time, generating network packets (with contention)
along the way.  The message sequences follow Section 2:

Private LLC
    L1 miss -> local L2 (no NoC).  L2 miss -> request to the address's MC,
    DRAM access, data response back to the node.

Shared LLC (S-NUCA)
    L1 miss -> request to the *home bank* (address-determined; possibly
    remote).  Bank hit -> data response bank -> core.  Bank miss -> request
    bank -> MC, DRAM, fill MC -> bank, then data bank -> core.

Dirty evictions ride the network as writeback packets and coherence
invalidations as control packets; both add traffic (contention) without
extending the triggering access's critical path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.cache.hierarchy import AccessOutcome, CacheHierarchy
from repro.cache.snuca import LLCOrganization, SnucaMapper
from repro.memory.controller import MemoryController
from repro.memory.translation import IdentityTranslation, PageTable
from repro.noc.analytic import AnalyticNetwork
from repro.noc.network import BaseNetwork, WormholeNetwork
from repro.noc.packet import Packet

from .config import NetworkModel, SystemConfig
from .stats import RunStats


@dataclass(frozen=True)
class AccessTiming:
    """Timing/outcome of a single access (returned to the engine)."""

    completion: int
    network_cycles: int
    l1_hit: bool
    llc_hit: bool
    home_bank: Optional[int] = None
    mc: Optional[int] = None


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
        self._line_mask = ~(config.l2_line_bytes - 1)
        if telemetry is not None and not getattr(telemetry, "enabled", True):
            telemetry = None  # a disabled hub is the same as no hub
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
    def _send(self, src: int, dst: int, time: int, payload_bytes: int) -> int:
        """Inject one packet; returns its arrival time at ``dst``."""
        if payload_bytes:
            packet = Packet.data_response(src, dst, time, payload_bytes)
        else:
            packet = Packet.request(src, dst, time)
        return self.network.transfer(packet)

    # ------------------------------------------------------------------
    def access(
        self, core: int, vaddr: int, is_write: bool, time: int
    ) -> AccessTiming:
        """Execute one memory access issued by ``core`` at ``time``."""
        paddr = self.translation.translate(vaddr)
        outcome = self.hierarchy.access(core, paddr, is_write)
        if outcome.l1_hit:
            return AccessTiming(
                completion=time + self.config.l1_latency,
                network_cycles=0,
                l1_hit=True,
                llc_hit=True,
            )
        return self._miss_path(core, paddr, time, outcome)

    # ------------------------------------------------------------------
    def translate_batch(self, vaddrs: np.ndarray) -> np.ndarray:
        """Translate a stream of virtual addresses in stream order.

        The page-allocation side effects (first-touch faults) happen in
        exactly the order a scalar access loop would trigger them.
        """
        return self.translation.translate_batch(vaddrs)

    def access_batch(
        self,
        core: int,
        vaddrs: np.ndarray,
        writes: np.ndarray,
        paddrs: Optional[np.ndarray] = None,
    ):
        """Open a batched fast path over ``core``'s next access stream.

        ``vaddrs[i]``/``writes[i]`` describe the ``i``-th access ``core``
        will issue.  Addresses are translated in bulk and the stream's
        L1-hit majority is consumed through the returned
        :class:`~repro.cache.cache.BulkAccessCursor` without entering
        Python per reference; each consumed access costs ``l1_latency``
        and generates no NoC/MC traffic, exactly like the scalar
        :meth:`access` hit path.  Accesses the cursor stops at are
        guaranteed L1 misses and must be replayed through scalar
        :meth:`access` (which charges their network/DRAM walk), then
        stepped over with ``advance_miss``.

        Pass ``paddrs`` when the stream was already translated (e.g. once
        per chunk via :meth:`translate_batch`) to avoid re-translating.
        """
        if paddrs is None:
            paddrs = self.translate_batch(vaddrs)
        return self.hierarchy.l1_bulk_cursor(core, paddrs, writes)

    def _miss_path(
        self, core: int, paddr: int, time: int, outcome: AccessOutcome
    ) -> AccessTiming:
        cfg = self.config
        bank = outcome.home_bank
        bank_node = self.snuca.bank_node(bank)
        line_bytes = cfg.l2_line_bytes
        t = time + cfg.l1_latency  # L1 lookup preceded the miss
        network_cycles = 0

        # Leg 1: core -> home bank (shared LLC only; private banks are local).
        if bank_node != core:
            arrival = self._send(core, bank_node, t, payload_bytes=0)
            network_cycles += arrival - t
            t = arrival
        t += cfg.llc_latency

        mc_index: Optional[int] = None
        if outcome.mc_needed:
            mc_index = self.distribution.mc_of(paddr)
            mc_node = self.mesh.mc_node(mc_index)
            # Leg 2: bank -> MC request.
            if mc_node != bank_node:
                arrival = self._send(bank_node, mc_node, t, payload_bytes=0)
                network_cycles += arrival - t
                t = arrival
            t = self.mcs[mc_index].access(paddr, t)
            # Leg 3: the MC responds *directly to the requester* (standard
            # directory-protocol fill), so the requesting core's proximity
            # to the MC shortens the heavyweight data leg -- the effect the
            # MAI/MAC placement exploits (Figure 1b/1d).  The home bank is
            # filled off the critical path.
            if bank_node != core and mc_node != bank_node:
                self._send(mc_node, bank_node, t, line_bytes)
            if mc_node != core:
                arrival = self._send(mc_node, core, t, line_bytes)
                network_cycles += arrival - t
                t = arrival
            return self._finish(
                outcome, paddr, bank_node, t, network_cycles, mc_index
            )
        if outcome.coherence.forward_from_owner is not None:
            # Dirty copy in another L1: bank forwards, owner sends the data.
            owner = outcome.coherence.forward_from_owner
            if owner != bank_node:
                self._send(bank_node, owner, t, payload_bytes=0)
            if owner != core:
                arrival = self._send(owner, core, t, line_bytes)
                network_cycles += arrival - t
                t = arrival
            return self._finish(
                outcome, paddr, bank_node, t, network_cycles, mc_index
            )

        # Leg 4: bank -> core data response.
        if bank_node != core:
            arrival = self._send(bank_node, core, t, line_bytes)
            network_cycles += arrival - t
            t = arrival
        return self._finish(outcome, paddr, bank_node, t, network_cycles, mc_index)

    def _finish(
        self,
        outcome: AccessOutcome,
        paddr: int,
        bank_node: int,
        t: int,
        network_cycles: int,
        mc_index: Optional[int],
    ) -> AccessTiming:
        cfg = self.config
        # Off-critical-path traffic: LLC writeback of a dirty victim...
        if outcome.llc_victim is not None:
            victim_mc = self.distribution.mc_of(outcome.llc_victim)
            victim_mc_node = self.mesh.mc_node(victim_mc)
            if victim_mc_node != bank_node:
                self._send(bank_node, victim_mc_node, t, cfg.l2_line_bytes)
        # ...and coherence invalidations to remote sharers.  One LLC line can
        # cover several (smaller) L1 lines; drop them all.
        if outcome.coherence.invalidate_nodes:
            llc_line_base = paddr & self._line_mask
            l1_line = cfg.l1_line_bytes
            for node in outcome.coherence.invalidate_nodes:
                if node != bank_node:
                    self._send(bank_node, node, t, payload_bytes=0)
                l1 = self.hierarchy.l1(node)
                for offset in range(0, cfg.l2_line_bytes, l1_line):
                    l1.invalidate(llc_line_base + offset)
        return AccessTiming(
            completion=t,
            network_cycles=network_cycles,
            l1_hit=False,
            llc_hit=outcome.llc_hit,
            home_bank=outcome.home_bank,
            mc=mc_index,
        )

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

    def reset(self) -> None:
        self.hierarchy.reset()
        for mc in self.mcs:
            mc.reset()
        self.network.reset()
        if self.spatial is not None:
            # Live stream accumulators follow the component counters; the
            # snapshot fields are refreshed by collect_spatial anyway.
            self.spatial.bank_touches[:] = 0
            self.spatial.link_flits.clear()
