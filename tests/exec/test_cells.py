"""Sweep cells reject a mapping they cannot run when they are built."""

from __future__ import annotations

import pytest

from repro.exec import SweepCell
from repro.experiments.harness import MAPPINGS
from repro.experiments.multiprog import MULTIPROG_MAPPINGS
from repro.sim.config import DEFAULT_CONFIG


def test_single_cell_rejects_unknown_mapping():
    with pytest.raises(ValueError, match="'magic'") as err:
        SweepCell(workload="mxm", config=DEFAULT_CONFIG, mapping="magic")
    assert str(MAPPINGS) in str(err.value)


def test_multiprog_cell_rejects_single_app_mapping():
    with pytest.raises(ValueError, match="'hardware'") as err:
        SweepCell(
            workload="bundle", config=DEFAULT_CONFIG, mapping="hardware",
            workloads=("mxm", "fft"),
        )
    assert str(MULTIPROG_MAPPINGS) in str(err.value)


@pytest.mark.parametrize(
    "mapping,workloads",
    [(m, ()) for m in MAPPINGS]
    + [(m, ("mxm", "fft")) for m in MULTIPROG_MAPPINGS],
)
def test_valid_cells_construct(mapping, workloads):
    cell = SweepCell(
        workload="mxm", config=DEFAULT_CONFIG, mapping=mapping,
        workloads=workloads,
    )
    assert cell.mapping == mapping
