"""The Prometheus text exposition: format, escaping, determinism."""

from __future__ import annotations

import numpy as np

from repro.obs import EventStream, Telemetry
from repro.obs.metrics import metric_name, prometheus_text


def populated_hub() -> Telemetry:
    telemetry = Telemetry(events=EventStream(level="off"))
    telemetry.manifest = {"compile_cache": {"counters": {"tables.hit": 5}}}
    hist = telemetry.histogram("noc.packet_hops")
    hist.record_many(np.array([1, 1, 2, 3, 3, 3, 9]))
    with telemetry.phase("sim"):
        with telemetry.phase("cold"):
            pass
    return telemetry


class TestMetricName:
    def test_sanitizes_illegal_characters(self):
        assert metric_name("noc.packet-hops") == "repro_noc_packet_hops"

    def test_leading_digit_gets_underscore(self):
        assert metric_name("9lives", prefix="") == "_9lives"

    def test_prefix_is_optional(self):
        assert metric_name("x", prefix="") == "x"


class TestExposition:
    def test_counter_lines(self):
        text = prometheus_text(populated_hub())
        assert "# TYPE repro_compile_cache_tables_hit_total counter" in text
        assert "repro_compile_cache_tables_hit_total 5" in text

    def test_histogram_summary_lines(self):
        text = prometheus_text(populated_hub())
        assert "# TYPE repro_noc_packet_hops summary" in text
        assert 'repro_noc_packet_hops{quantile="0.5"} 3' in text
        assert "repro_noc_packet_hops_count 7" in text
        assert "repro_noc_packet_hops_sum 22" in text

    def test_phase_lines(self):
        text = prometheus_text(populated_hub())
        assert "# TYPE repro_phase_seconds gauge" in text
        assert 'repro_phase_seconds{phase="sim"}' in text
        assert 'repro_phase_calls{phase="sim.cold"} 1' in text

    def test_base_labels_attach_everywhere(self):
        text = prometheus_text(
            populated_hub(), labels={"app": "mxm", "mapping": "la"}
        )
        assert ('repro_compile_cache_tables_hit_total'
                '{app="mxm",mapping="la"} 5') in text
        # extra labels merge after the base ones
        assert ('repro_noc_packet_hops{app="mxm",mapping="la",'
                'quantile="0.9"}') in text

    def test_label_values_are_escaped(self):
        telemetry = Telemetry(events=EventStream(level="off"))
        telemetry.manifest = {"compile_cache": {"counters": {"tables.hit": 1}}}
        text = prometheus_text(telemetry, labels={"app": 'm"x\\m'})
        assert 'app="m\\"x\\\\m"' in text

    def test_empty_hub_renders_empty(self):
        telemetry = Telemetry(events=EventStream(level="off"))
        assert prometheus_text(telemetry) == ""
        telemetry.manifest = {"compile_cache": {"enabled": False}}
        assert prometheus_text(telemetry) == ""

    def test_output_is_deterministic(self):
        assert prometheus_text(populated_hub()).splitlines()[:9] == \
            prometheus_text(populated_hub()).splitlines()[:9]
