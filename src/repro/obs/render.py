"""Rendering of telemetry: mesh heatmaps (ASCII/CSV) and phase tables.

The heatmaps are the paper's qualitative story made visible: per-tile
access pressure, per-LLC-bank hit locality, per-MC request skew and
per-link NoC utilization, drawn over the mesh with region boundaries so
the R1..R9 structure of Figure 6 is recognizable at a glance.
"""

from __future__ import annotations

import io
from typing import Dict, Mapping, Optional, Tuple

from repro.experiments.report import format_table
from repro.noc.topology import Mesh2D

from .spatial import SpatialAccumulators
from .telemetry import Telemetry

HEATMAP_METRICS = (
    "tile",      # per-tile accesses issued (L1 accesses)
    "l1miss",    # per-tile L1 misses (traffic sources)
    "touch",     # per-bank home-address touches (data placement)
    "bank",      # per-bank L1-miss requests
    "bankhit",   # per-bank LLC hits (CAI locality)
    "mc",        # per-MC off-chip requests (rendered at MC nodes)
    "mcqueue",   # per-MC cumulative queueing cycles
    "link",      # per-link flits, folded to flits leaving each node
)


def render_node_values(
    mesh: Mesh2D,
    values: Mapping[int, float],
    cell_width: int = 5,
    fmt: str = "{:4.0f}",
    region_w: int = 0,
    region_h: int = 0,
) -> str:
    """Grid of per-node values; region boundaries drawn if sizes given."""
    lines = []
    for y in range(mesh.height):
        if region_h and y % region_h == 0 and y > 0:
            lines.append("-" * ((cell_width + 1) * mesh.width))
        row = []
        for x in range(mesh.width):
            sep = "|" if (region_w and x % region_w == 0 and x > 0) else " "
            value = values.get(mesh.node_id((x, y)), 0.0)
            row.append(sep + fmt.format(value).rjust(cell_width - 1))
        lines.append("".join(row))
    return "\n".join(lines)


def render_link_utilization(
    mesh: Mesh2D,
    link_flits: Mapping[Tuple[int, int], int],
    top: int = 10,
) -> str:
    """The ``top`` busiest directed links, one per line."""
    ranked = sorted(link_flits.items(), key=lambda kv: -kv[1])[:top]
    lines = ["busiest links (flits carried):"]
    for (u, v), flits in ranked:
        lines.append(
            f"  {mesh.coord(u)} -> {mesh.coord(v)}: {flits}"
        )
    return "\n".join(lines)


def _node_values(
    spatial: SpatialAccumulators, mesh: Mesh2D, metric: str
) -> Dict[int, float]:
    if metric == "tile":
        values = spatial.tile_accesses
    elif metric == "l1miss":
        values = spatial.tile_l1_misses
    elif metric == "touch":
        values = spatial.bank_touches
    elif metric == "bank":
        values = spatial.bank_requests
    elif metric == "bankhit":
        values = spatial.bank_hits
    elif metric == "link":
        values = spatial.node_link_load()
    elif metric in ("mc", "mcqueue"):
        source = (
            spatial.mc_requests if metric == "mc" else spatial.mc_queue_delay
        )
        return {
            mesh.mc_node(i): float(source[i]) for i in range(spatial.num_mcs)
        }
    else:
        raise ValueError(
            f"unknown heatmap metric {metric!r}; one of {HEATMAP_METRICS}"
        )
    return {node: float(values[node]) for node in range(len(values))}


def render_heatmap(
    spatial: SpatialAccumulators,
    mesh: Mesh2D,
    metric: str,
    region_w: int = 0,
    region_h: int = 0,
    title: Optional[str] = None,
) -> str:
    """ASCII mesh heatmap of one metric, region boundaries included."""
    values = _node_values(spatial, mesh, metric)
    peak = max(values.values(), default=0.0)
    width = max(5, len(f"{int(peak)}") + 2)
    lines = []
    if title:
        lines.append(title)
    lines.append(
        render_node_values(
            mesh,
            values,
            cell_width=width,
            fmt="{:" + str(width - 1) + ".0f}",
            region_w=region_w,
            region_h=region_h,
        )
    )
    total = sum(values.values())
    lines.append(
        f"total {int(total)}, peak {int(peak)}"
        + (f", peak/mean {peak * len(values) / total:.2f}x" if total else "")
    )
    if metric == "link" and spatial.link_flits:
        lines.append(render_link_utilization(mesh, spatial.link_flits))
    return "\n".join(lines)


def heatmap_csv(
    spatial: SpatialAccumulators, mesh: Mesh2D, metric: str
) -> str:
    """CSV form: ``node,x,y,value`` rows (links: ``src,dst,flits``)."""
    out = io.StringIO()
    if metric == "link":
        out.write("src,dst,src_x,src_y,dst_x,dst_y,flits\n")
        for (src, dst), flits in spatial.link_matrix():
            sx, sy = mesh.coord(src)
            dx, dy = mesh.coord(dst)
            out.write(f"{src},{dst},{sx},{sy},{dx},{dy},{flits}\n")
        return out.getvalue()
    values = _node_values(spatial, mesh, metric)
    out.write("node,x,y,value\n")
    for node in sorted(values):
        x, y = mesh.coord(node)
        out.write(f"{node},{x},{y},{int(values[node])}\n")
    return out.getvalue()


def render_fault_overlay(
    mesh: Mesh2D,
    plan,
    title: Optional[str] = None,
) -> str:
    """ASCII mesh overlay of a :class:`repro.faults.FaultPlan`.

    One cell per node; markers compose per node:

    * ``B`` -- this node's LLC bank is offline;
    * ``R`` -- hotspot router (extra pipeline cycles);
    * ``M!``/``M~`` -- the MC at this node is offline / throttled;
    * ``x``/``~`` suffix -- at least one outgoing link is down / throttled.

    A textual list of the plan's specs follows the grid, so the overlay
    is self-describing in CI logs.
    """
    offline_banks = {f.bank for f in plan.banks}
    hotspots = {mesh.node_id(f.node) for f in plan.routers}
    mc_state: Dict[int, str] = {}
    for f in plan.mcs:
        mc_state[mesh.mc_node(f.mc)] = "M!" if f.offline else "M~"
    link_state: Dict[int, str] = {}
    for f in plan.links:
        src = mesh.node_id(f.src)
        mark = "x" if f.down else "~"
        # A downed outgoing link outranks a throttled one on the same node.
        if link_state.get(src) != "x":
            link_state[src] = mark
    values: Dict[int, str] = {}
    for node in range(mesh.num_nodes):
        marks = ""
        if node in mc_state:
            marks += mc_state[node]
        if node in offline_banks:
            marks += "B"
        if node in hotspots:
            marks += "R"
        marks += link_state.get(node, "")
        values[node] = marks or "."
    width = max(5, max(len(v) for v in values.values()) + 2)
    lines = []
    if title:
        lines.append(title)
    grid_lines = []
    for y in range(mesh.height):
        row = []
        for x in range(mesh.width):
            node = mesh.node_id((x, y))
            row.append(values[node].center(width))
        grid_lines.append("".join(row))
    lines.extend(grid_lines)
    lines.append(
        "legend: B bank offline, R hotspot router, M! MC offline, "
        "M~ MC throttled, x link down, ~ link throttled"
    )
    if plan.is_empty:
        lines.append("faults: (none)")
    else:
        lines.append("faults:")
        lines.extend(f"  {spec}" for spec in plan.to_specs())
    return "\n".join(lines)


def render_phase_table(telemetry: Telemetry, title: str = "phase profile") -> str:
    rows = telemetry.phase_rows()
    if not rows:
        return f"{title}: (no phases recorded)"
    return format_table(
        ["phase", "calls", "seconds", "share %"],
        rows,
        title=title,
        float_fmt="{:.4f}",
    )


def render_histograms(telemetry: Telemetry) -> str:
    if not telemetry.histograms:
        return "(no histograms recorded)"
    rows = []
    for name, hist in sorted(telemetry.histograms.items()):
        d = hist.as_dict()
        rows.append([
            name, d["total"], d["mean"], d["min"], d["p50"], d["p90"],
            d["p99"], d["max"],
        ])
    return format_table(
        ["histogram", "n", "mean", "min", "p50", "p90", "p99", "max"],
        rows,
        title="distributions",
        float_fmt="{:.2f}",
    )


def render_manifest(manifest: Optional[dict]) -> str:
    if not manifest:
        return "(no manifest)"
    lines = ["run manifest", "============"]
    for key in sorted(manifest):
        value = manifest[key]
        if key == "phase_seconds" and isinstance(value, dict):
            for phase, seconds in sorted(value.items()):
                lines.append(f"  phase {phase}: {seconds:.4f}s")
            continue
        lines.append(f"  {key}: {value}")
    return "\n".join(lines)
