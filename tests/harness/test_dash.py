"""Tests for the console serving dashboard."""

import pytest

from repro.harness.dash import MAX_TABLE_WINDOWS, format_dash, run_dash, sparkline


class TestSparkline:
    def test_scales_to_peak(self):
        line = sparkline([0, 1, 2, 4])
        assert len(line) == 4
        assert line[0] == "▁"
        assert line[-1] == "█"

    def test_all_zero_is_flat(self):
        assert sparkline([0, 0, 0]) == "▁▁▁"

    def test_empty(self):
        assert sparkline([]) == ""

    def test_monotone_values_render_monotone_glyphs(self):
        line = sparkline([1, 2, 3, 4, 5, 6, 7, 8])
        assert list(line) == sorted(line)


class TestRunDash:
    @pytest.fixture(scope="class")
    def dash(self):
        return run_dash(horizon=40.0, databases=("superhero",))

    def test_payload_shape(self, dash):
        payload, _ = dash
        assert payload["multiplier"] == 2.0
        assert payload["windows"]
        assert set(payload["budgets"]) == {"availability", "latency"}
        assert payload["serve"]["accounting_ok"]

    def test_text_has_dashboard_sections(self, dash):
        _, text = dash
        assert "Serving dashboard" in text
        assert "offered/s" in text
        assert "SLO error budgets" in text
        assert "Flight recorder" in text
        assert any(block in text for block in "▁▂▃▄▅▆▇█")

    def test_deterministic(self, dash):
        payload, text = dash
        payload2, text2 = run_dash(horizon=40.0, databases=("superhero",))
        assert text == text2
        assert payload == payload2

    def test_long_runs_elide_old_windows(self, dash):
        payload, _ = dash
        rows = [
            dict(row) for row in payload["windows"]
        ] * (MAX_TABLE_WINDOWS // len(payload["windows"]) + 2)
        for i, row in enumerate(rows):
            row["window"] = i
        text = format_dash({**payload, "windows": rows})
        assert "earlier windows elided" in text


class TestBatchedDash:
    """The dashboard runs the per-request server only: no batching panel."""

    def test_unbatched_dash_has_no_panel(self):
        payload, text = run_dash(horizon=40.0, databases=("superhero",))
        assert "batch_occupancy_windows" not in payload
        assert "batch occ" not in text
        assert "Cross-request batching:" not in text


class TestTraceBar:
    def test_exact_width_and_chronological_glyphs(self):
        from repro.harness.dash import trace_bar

        bar = trace_bar(
            {"serve:queue": 6.0, "serve:llm": 3.0, "llm:backoff": 1.0},
            10.0, width=20,
        )
        assert len(bar) == 20
        assert bar == "q" * 12 + "#" * 6 + "b" * 2

    def test_zero_total_renders_placeholder(self):
        from repro.harness.dash import trace_bar

        assert trace_bar({}, 0.0, width=8) == "·" * 8


class TestTracedDash:
    @pytest.fixture(scope="class")
    def dash(self):
        from repro.obs.sampler import TailSampler

        return run_dash(
            horizon=40.0, databases=("superhero",),
            sampler=TailSampler(),
        )

    def test_panel_payload_shape(self, dash):
        payload, _ = dash
        panel = payload["traces"]
        assert panel["sampler"]["total"] == payload["serve"]["offered"]
        assert panel["slowest"]
        latencies = [t["latency"] for t in panel["slowest"]]
        assert latencies == sorted(latencies, reverse=True)
        for trace in panel["slowest"]:
            assert trace["stages"]

    def test_panel_renders_with_bars(self, dash):
        _, text = dash
        assert "Slowest sampled traces" in text
        assert "q=queue" in text

    def test_deterministic(self, dash):
        from repro.obs.sampler import TailSampler

        payload, text = dash
        payload2, text2 = run_dash(
            horizon=40.0, databases=("superhero",),
            sampler=TailSampler(),
        )
        assert payload == payload2
        assert text == text2

    def test_untraced_dash_has_no_panel(self):
        payload, text = run_dash(horizon=40.0, databases=("superhero",))
        assert "traces" not in payload
        assert "Slowest sampled traces" not in text
