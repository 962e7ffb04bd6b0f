"""FaultPlans and the content-addressed sweep cache.

Two cells that differ only in their fault plan (or only in fault
awareness) must never share a cache entry; two spellings of the same plan
must.  And the zero-fault identity must be byte-compatible with the
pre-faults cell identity, so caches populated before this subsystem
existed replay unchanged.
"""

import pytest

from repro.exec.cells import SweepCell
from repro.sim.config import DEFAULT_CONFIG


def _cell(**kwargs):
    return SweepCell(
        workload="mxm", config=DEFAULT_CONFIG, mapping="la", scale=0.2,
        **kwargs,
    )


class TestKeySensitivity:
    def test_different_plans_different_keys(self):
        a = _cell(faults=("bank:1:offline",))
        b = _cell(faults=("bank:2:offline",))
        assert a.key() != b.key()

    def test_faulted_differs_from_pristine(self):
        assert _cell(faults=("mc:1:offline",)).key() != _cell().key()

    def test_fault_awareness_is_part_of_the_key(self):
        plan = ("mc:1:offline",)
        aware = _cell(faults=plan, fault_aware=True)
        oblivious = _cell(faults=plan, fault_aware=False)
        assert aware.key() != oblivious.key()

    def test_spec_order_normalizes_to_one_key(self):
        specs = ("bank:3:offline", "mc:1:throttle=0.5", "link:0,0->1,0:down")
        a = _cell(faults=specs)
        b = _cell(faults=tuple(reversed(specs)))
        assert a.faults == b.faults
        assert a.identity() == b.identity()
        assert a.key() == b.key()
        assert a.seed == b.seed


class TestZeroFaultCompatibility:
    def test_empty_faults_leave_identity_unchanged(self):
        identity = _cell().identity()
        assert "faults" not in identity
        assert "fault_aware" not in identity
        assert _cell(faults=()).identity() == identity

    def test_fault_aware_flag_is_vacuous_without_a_plan(self):
        # fault_aware must not leak into zero-fault keys: pre-faults cache
        # entries stay addressable.
        assert _cell(fault_aware=False).key() == _cell().key()
        assert _cell(fault_aware=False).seed == _cell().seed


class TestConstruction:
    def test_invalid_specs_rejected_at_construction(self):
        with pytest.raises(Exception):
            _cell(faults=("gpu:0:offline",))

    def test_multiprog_bundles_reject_fault_plans(self):
        with pytest.raises(ValueError):
            SweepCell(
                workload="bundle", config=DEFAULT_CONFIG,
                workloads=("mxm", "nbf"), faults=("bank:1:offline",),
            )
