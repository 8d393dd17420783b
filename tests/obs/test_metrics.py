"""Metrics instruments and the Prometheus/JSON exporters (golden)."""

from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.obs.metrics import (
    MetricsRegistry,
    write_metrics_json,
    write_metrics_prometheus,
)

GOLDEN = Path(__file__).parent / "golden"


def sample_registry() -> MetricsRegistry:
    """The fixed registry the golden exporter files were rendered from."""
    reg = MetricsRegistry()
    reg.inc("autosens_slice_cache_total", 3.0, help="slice cache lookups",
            outcome="hit", kind="action")
    reg.inc("autosens_slice_cache_total", 1.0, outcome="miss", kind="action")
    reg.set_gauge("autosens_active_workers", 4, help="pool width")
    return reg


class TestCounter:
    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        reg.inc("x", 1.0, a="1", b="2")
        reg.inc("x", 2.0, b="2", a="1")
        assert reg.counter("x").value(a="1", b="2") == 3.0

    def test_counters_cannot_decrease(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigError):
            reg.inc("x", -1.0)

    def test_unlabeled_series(self):
        reg = MetricsRegistry()
        reg.inc("plain")
        assert reg.counter("plain").value() == 1.0


class TestGauge:
    def test_set_overwrites_and_inc_is_signed(self):
        reg = MetricsRegistry()
        reg.set_gauge("g", 10.0)
        reg.gauge("g").inc(-3.0)
        assert reg.gauge("g").value() == 7.0


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("c") is reg.counter("c")
        assert len(reg) == 1

    def test_kind_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ConfigError):
            reg.gauge("x")

    def test_merge_adds_counters_and_overwrites_gauges(self):
        reg = MetricsRegistry()
        reg.inc("c", 2.0, outcome="hit")
        reg.set_gauge("g", 1.0)
        other = MetricsRegistry()
        other.inc("c", 3.0, outcome="hit")
        other.inc("c", 1.0, outcome="miss")
        other.set_gauge("g", 7.0)
        other.set_gauge("h", 5.0, help="only in the other")
        reg.merge(other)
        assert reg.counter("c").value(outcome="hit") == 5.0
        assert reg.counter("c").value(outcome="miss") == 1.0
        assert reg.gauge("g").value() == 7.0
        assert "# HELP h only in the other" in reg.render_prometheus()

    def test_merge_kind_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        other = MetricsRegistry()
        other.set_gauge("x", 1.0)
        with pytest.raises(ConfigError):
            reg.merge(other)


class TestExporters:
    def test_prometheus_matches_golden(self, tmp_path):
        out = tmp_path / "metrics.prom"
        write_metrics_prometheus(sample_registry(), out)
        assert out.read_bytes() == (GOLDEN / "metrics.prom").read_bytes()

    def test_json_snapshot_matches_golden(self, tmp_path):
        out = tmp_path / "metrics.json"
        write_metrics_json(sample_registry(), out)
        assert out.read_bytes() == (GOLDEN / "metrics.json").read_bytes()

    def test_two_identical_workloads_render_identically(self):
        assert (sample_registry().render_prometheus()
                == sample_registry().render_prometheus())

    def test_prometheus_shape(self):
        text = sample_registry().render_prometheus()
        assert "# TYPE autosens_slice_cache_total counter" in text
        assert "# HELP autosens_slice_cache_total slice cache lookups" in text
        assert "# TYPE autosens_active_workers gauge" in text
        assert text.endswith("\n")

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""
        assert MetricsRegistry().snapshot() == {}


class TestLabelEscaping:
    """Exposition format: \\, " and newline must be escaped in label values."""

    def test_special_characters_are_escaped(self):
        reg = MetricsRegistry()
        reg.inc("autosens_paths_total", 1.0,
                path='C:\\logs\\"daily"\nnight')
        text = reg.render_prometheus()
        assert ('autosens_paths_total{'
                'path="C:\\\\logs\\\\\\"daily\\"\\nnight"} 1') in text
        assert "\n" not in text.splitlines()[-1]  # value stays on one line

    def test_plain_values_are_untouched(self):
        reg = MetricsRegistry()
        reg.inc("autosens_x_total", 1.0, outcome="hit")
        assert 'autosens_x_total{outcome="hit"} 1' in reg.render_prometheus()
