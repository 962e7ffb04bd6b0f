"""Output checks and the simulated-result aggregates.

A cell fails when its RunStats break a harness invariant, when two
executions of it disagree (repeats, traced vs untraced), or -- for the
pinned seed -- when it differs from ``digests.json``.  Disagreements are
named by their first differing field, section by section, in the manner
of ``repro.fuzz.oracles``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

DIGESTS_PATH = Path(__file__).with_name("digests.json")

SECTIONS = ("stats", "moved_fraction", "obs")

PAPER_AVERAGES = {
    # (figure, LLC): (net-latency reduction %, execution-time reduction %)
    "private": ("Fig. 7b", 38.4, 10.9),
    "shared": ("Fig. 8", 43.8, 12.7),
}


def payload_digest(payload: Dict[str, Any]) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


def invariant_violation(stats: Dict[str, int]) -> Optional[str]:
    """The first harness invariant ``stats`` breaks, or None."""
    for hits, accesses in (
        ("l1_hits", "l1_accesses"),
        ("llc_hits", "llc_accesses"),
        ("dram_row_hits", "dram_accesses"),
    ):
        if not 0 <= stats[hits] <= stats[accesses]:
            return (
                f"stats.{hits}={stats[hits]} exceeds "
                f"stats.{accesses}={stats[accesses]}"
            )
    for name in ("execution_cycles", "iterations_executed", "l1_accesses"):
        if stats[name] <= 0:
            return f"stats.{name}={stats[name]} is not positive"
    return None


def first_difference(got: Dict[str, Any], want: Dict[str, Any],
                     want_name: str) -> Optional[str]:
    """Name the first section (and stats field) where two payloads differ."""
    for section in SECTIONS:
        a, b = got.get(section), want.get(section)
        if a == b:
            continue
        if section == "stats":
            for name in sorted(set(a) | set(b)):
                if a.get(name) != b.get(name):
                    return (
                        f"stats.{name}: got={a.get(name)} "
                        f"{want_name}={b.get(name)}"
                    )
        return f"{section} differs from {want_name}"
    return None


def pinned_form(payload: Dict[str, Any]) -> Dict[str, Any]:
    """What ``digests.json`` keeps per cell: the digest of the whole
    payload, plus its stats and a digest of its obs section so a
    mismatch can be named."""
    pinned = {
        "sha256": payload_digest(payload),
        "stats": payload["stats"],
        "moved_fraction": payload["moved_fraction"],
    }
    if "obs" in payload:
        pinned["obs"] = payload_digest(payload["obs"])
    return pinned


def load_pins(workload: str) -> Dict[str, Dict[str, Any]]:
    data = json.loads(DIGESTS_PATH.read_text())
    return data["workloads"].get(workload, {})


def check_pin(payload: Dict[str, Any], pin: Optional[Dict[str, Any]]
              ) -> Optional[str]:
    if pin is None:
        return "no pinned digest for this cell"
    got = pinned_form(payload)
    if got["sha256"] == pin["sha256"]:
        return None
    return first_difference(got, pin, "pinned") or "payload digest differs"


class CellChecks:
    """Collects the first failure of each cell across every check."""

    def __init__(self, ids: List[str]) -> None:
        self.ids = ids
        self.failures: Dict[str, str] = {}

    def fail(self, cell: str, reason: Optional[str]) -> None:
        if reason is not None and cell not in self.failures:
            self.failures[cell] = reason

    def fail_all(self, reason: str) -> None:
        for cell in self.ids:
            self.fail(cell, reason)

    def invariants(self, payloads: List[Dict[str, Any]]) -> None:
        for cell, payload in zip(self.ids, payloads):
            self.fail(cell, invariant_violation(payload["stats"]))

    def same(self, got: Iterable[Tuple[str, Dict[str, Any]]],
             want: Dict[str, Dict[str, Any]], want_name: str) -> None:
        for cell, payload in got:
            self.fail(cell, first_difference(payload, want[cell], want_name))

    def pins(self, payloads: Dict[str, Dict[str, Any]], workload: str) -> None:
        pins = load_pins(workload)
        for cell, payload in payloads.items():
            self.fail(cell, check_pin(payload, pins.get(cell)))


# ----------------------------------------------------------------------
# LA-vs-default aggregates (simulated, exact)
# ----------------------------------------------------------------------
def _avg_latency(stats: Dict[str, int]) -> float:
    packets = stats["network_packets"]
    return stats["network_total_latency"] / packets if packets else 0.0


def ratio_reduction_pct(pairs: List[Tuple[float, float]]) -> Optional[float]:
    """``100 * (1 - geomean(la / default))`` over positive pairs.

    Aggregating ratios stays finite when an app more than doubles, which
    the percentage geomean of ``repro.sim.stats`` cannot.
    """
    logs = [math.log(la / base) for la, base in pairs if la > 0 and base > 0]
    if not logs:
        return None
    return 100.0 * (1.0 - math.exp(sum(logs) / len(logs)))


def la_reductions(ids: List[str], payloads: List[Dict[str, Any]]
                  ) -> Dict[str, Dict[str, Optional[float]]]:
    """LA-vs-default reductions per LLC organization and over all pairs."""
    by_id = dict(zip(ids, payloads))
    groups: Dict[str, List[Tuple[Dict, Dict]]] = {}
    for cell in ids:
        if "[la]@" not in cell:
            continue
        llc = cell.rpartition("@")[2]
        default = by_id[cell.replace("[la]@", "[default]@")]["stats"]
        groups.setdefault(llc, []).append((by_id[cell]["stats"], default))
    groups["all"] = [pair for llc in list(groups) for pair in groups[llc]]
    return {
        llc: {
            "time": ratio_reduction_pct([
                (la["execution_cycles"], base["execution_cycles"])
                for la, base in pairs
            ]),
            "net_latency": ratio_reduction_pct([
                (_avg_latency(la), _avg_latency(base)) for la, base in pairs
            ]),
        }
        for llc, pairs in groups.items()
    }
