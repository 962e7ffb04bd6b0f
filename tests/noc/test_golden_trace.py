"""Golden NoC trace: pinned per-packet results of both network models.

A seeded trace of a few thousand packets goes through the analytic and
wormhole models, pristine and under fault plans.  The sha256 of every
packet's ``(arrival, queueing)`` plus the final :class:`NetworkStats` is
pinned, so any change to routing, contention windows or fault timing --
however small -- moves a digest.

The trace deliberately contains inject times that go backwards, bursts
that cross utilization-window boundaries, idle gaps longer than one
window, and local (``src == dst``) packets.

Run this file as a script to print the digests after an intended change.
"""

import dataclasses
import hashlib
import json
import random

import pytest

from repro.faults import DegradedTopology, FaultPlan
from repro.noc.analytic import AnalyticNetwork
from repro.noc.network import WormholeNetwork
from repro.noc.topology import Mesh2D

MESH = Mesh2D(6, 6)
WINDOW = 4096  # the machine's analytic window
SMALL_WINDOW = 64

PLANS = {
    "pristine": None,
    # The fixed plan of the fault-aware observability runs (network part).
    "faulted-obs": [
        "link:2,2->3,2:down",
        "link:3,2->2,2:down",
        "router:2,2:hotspot=+8cyc",
    ],
    "throttled": [
        "link:1,1->2,1:throttle=0.5",
        "link:4,4->4,3:throttle=0.3",
        "link:0,3->0,2:down",
        "router:4,1:hotspot=+3cyc",
    ],
}

MODELS = {
    "analytic": lambda: AnalyticNetwork(MESH, router_delay=3, window=WINDOW),
    "analytic-w64": lambda: AnalyticNetwork(
        MESH, router_delay=3, window=SMALL_WINDOW
    ),
    "wormhole": lambda: WormholeNetwork(MESH, router_delay=3),
}

GOLDEN = {
    ("analytic", "pristine"):
        "f0c337dc14f7b872be0d2b47126a11031eb114d4daebfa0c9d728fc50e2546d9",
    ("analytic", "faulted-obs"):
        "ed165d420c381a416851ac1f080d58344420521bb329286bc5d9f9c7cc4fe288",
    ("analytic", "throttled"):
        "bbe6f17ce6e247cef4c5383a4fa9d143128462d9c3b2e36a8a14e791c5eae6dd",
    ("analytic-w64", "pristine"):
        "b5bb9a416247959893a52ddd1dc45fa22e3322949398dc53fe35ef102502e806",
    ("analytic-w64", "faulted-obs"):
        "b72d8b7171cd0e98a12fbfd113f0d8fbaf9fa13a89744dedcb859efa12f1d047",
    ("analytic-w64", "throttled"):
        "fb2f40510bf546ca43527474121552ffc657559fd89a6d5343af0145ad5d588a",
    ("wormhole", "pristine"):
        "619a6c58fe4562a1e80d46ecc481cb023a7df51335826dc16b2105a1f9ec2db1",
    ("wormhole", "faulted-obs"):
        "b4722cf53cbe6f4613220497b172eb02398623d15c4d4d339743e3d59036f740",
    ("wormhole", "throttled"):
        "50e3665da947d64fe728f4716fda33543bf415e58d5716a6b2dfe79c0a9f8add",
}


def golden_trace(seed: int = 20180618, packets: int = 4000):
    """``(src, dst, flits, inject_time)`` tuples; see the module doc."""
    rng = random.Random(seed)
    hot = (0, 5, 14, 30, 35)  # MC corners and the hotspot router
    trace = []
    t = 0
    for _ in range(packets):
        r = rng.random()
        if r < 0.06:
            t = max(0, t - rng.randint(1, 2 * WINDOW))  # goes backwards
        elif r < 0.09:
            t += rng.randint(WINDOW + 1, 4 * WINDOW)  # idle gap > window
        elif r < 0.60:
            t += rng.randint(0, 2)  # burst: real contention
        else:
            t += rng.randint(0, 40)
        src = rng.choice(hot) if rng.random() < 0.3 else rng.randrange(36)
        if rng.random() < 0.05:
            dst = src
        elif rng.random() < 0.4:
            dst = rng.choice(hot)
        else:
            dst = rng.randrange(36)
        flits = rng.choice((1, 1, 1, 5, 5, 2, 3))
        trace.append((src, dst, flits, t))
    return trace


def run_digest(model: str, plan: str) -> str:
    net = MODELS[model]()
    if PLANS[plan] is not None:
        net.apply_faults(DegradedTopology(MESH, FaultPlan.parse(PLANS[plan])))
    results = []
    for src, dst, flits, t in golden_trace():
        before = net.stats.total_queueing
        arrival = net.transfer(src, dst, t, flits)
        results.append((arrival, net.stats.total_queueing - before))
    document = {"packets": results, "stats": dataclasses.asdict(net.stats)}
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_trace_covers_the_edge_cases():
    trace = golden_trace()
    times = [t for _, _, _, t in trace]
    assert any(b < a for a, b in zip(times, times[1:]))
    assert any(b - a > WINDOW for a, b in zip(times, times[1:]))
    assert len({t // WINDOW for t in times}) > 50
    assert any(src == dst for src, dst, _, _ in trace)


@pytest.mark.parametrize("model, plan", sorted(GOLDEN))
def test_golden_digest(model, plan):
    assert run_digest(model, plan) == GOLDEN[(model, plan)]


if __name__ == "__main__":  # pragma: no cover - re-pinning helper
    for model, plan in sorted(GOLDEN):
        print(f'    ("{model}", "{plan}"):\n        "{run_digest(model, plan)}",')
