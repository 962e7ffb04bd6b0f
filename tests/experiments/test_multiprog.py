"""Multi-programmed co-scheduling."""

import pytest

from repro.experiments import multiprog
from repro.experiments.multiprog import (
    MultiProgramResult,
    run_multiprogrammed,
)
from repro.sim.config import DEFAULT_CONFIG
from repro.workloads import build_workload


@pytest.fixture(scope="module")
def bundle():
    return [build_workload("mxm"), build_workload("fft")]


class TestRunMultiprogrammed:
    def test_default_bundle_runs(self, bundle):
        result = run_multiprogrammed(
            bundle, DEFAULT_CONFIG, mapping="default", scale=0.25
        )
        assert isinstance(result, MultiProgramResult)
        assert result.makespan > 0
        assert len(result.finish_times) == 2
        assert result.makespan == max(result.finish_times.values())

    def test_la_bundle_runs(self, bundle):
        result = run_multiprogrammed(
            bundle, DEFAULT_CONFIG, mapping="la", scale=0.25
        )
        assert result.makespan > 0

    def test_bundle_slower_than_solo(self, bundle):
        """Sharing the machine cannot beat running one app alone."""
        solo = run_multiprogrammed(
            bundle[:1], DEFAULT_CONFIG, mapping="default", scale=0.25
        )
        both = run_multiprogrammed(
            bundle, DEFAULT_CONFIG, mapping="default", scale=0.25
        )
        assert both.makespan >= solo.makespan

    def test_empty_bundle_rejected(self):
        with pytest.raises(ValueError):
            run_multiprogrammed([], DEFAULT_CONFIG)

    @pytest.mark.parametrize("mapping", ["hardware", "do", "la+do", "magic"])
    def test_unsupported_mapping_rejected(self, bundle, mapping):
        """Only round-robin and LA exist here; anything else must not
        silently report LA's makespan."""
        with pytest.raises(ValueError, match="'default', 'la'"):
            run_multiprogrammed(bundle, DEFAULT_CONFIG, mapping=mapping,
                                scale=0.25)

    def test_irregular_member_supported(self):
        bundle = [build_workload("mxm"), build_workload("nbf")]
        result = run_multiprogrammed(
            bundle, DEFAULT_CONFIG, mapping="la", scale=0.25
        )
        assert result.makespan > 0

    def test_programs_touch_disjoint_addresses(self, bundle, monkeypatch):
        """Co-scheduled programs share the machine, not their data."""
        program_trace = multiprog.ProgramTrace
        traces = []

        def recording_trace(instance, iteration_sets):
            traces.append(program_trace(instance, iteration_sets))
            return traces[-1]

        monkeypatch.setattr(multiprog, "ProgramTrace", recording_trace)
        run_multiprogrammed(bundle, DEFAULT_CONFIG, scale=0.2)
        touched = [
            {
                int(address)
                for nest, sets in trace.iteration_sets.items()
                for iteration_set in sets
                for address in trace.set_trace(nest, iteration_set).flat_addresses
            }
            for trace in traces
        ]
        assert len(touched) == 2
        assert touched[0] and touched[1]
        assert not touched[0] & touched[1]
