"""DO / LA+DO integration through the harness."""

from repro.baselines.layout import PageRemapTranslation
from repro.experiments.harness import run_workload
from repro.sim.config import DEFAULT_CONFIG
from repro.workloads import build_workload

SCALE = 0.3


class TestDataLayoutPath:
    def test_do_installs_remap_translation(self):
        workload = build_workload("mxm")
        result = run_workload(workload, DEFAULT_CONFIG, mapping="do",
                              scale=SCALE)
        translation = result.engine.machine.translation
        assert isinstance(translation, PageRemapTranslation)
        assert translation.remap

    def test_default_uses_identity(self):
        workload = build_workload("mxm")
        result = run_workload(workload, DEFAULT_CONFIG, scale=SCALE)
        from repro.memory.translation import IdentityTranslation

        assert isinstance(result.engine.machine.translation,
                          IdentityTranslation)

    def test_la_do_composes_remap_and_schedule(self):
        workload = build_workload("mxm")
        result = run_workload(workload, DEFAULT_CONFIG, mapping="la+do",
                              scale=SCALE)
        assert isinstance(result.engine.machine.translation,
                          PageRemapTranslation)
        assert result.compiled is not None

    def test_do_changes_mc_traffic_distribution(self):
        """The remap must actually move pages between MCs."""
        workload = build_workload("mxm")
        base = run_workload(workload, DEFAULT_CONFIG.private_llc(),
                            scale=SCALE)
        do = run_workload(workload, DEFAULT_CONFIG.private_llc(),
                          mapping="do", scale=SCALE)
        base_mc = [mc.stats.requests for mc in base.engine.machine.mcs]
        do_mc = [mc.stats.requests for mc in do.engine.machine.mcs]
        assert base_mc != do_mc
