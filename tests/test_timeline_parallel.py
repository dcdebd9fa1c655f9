"""Tests for the SM timeline."""

import pytest

from repro.gpusim import GTX1650, WarpJob
from repro.gpusim.timeline import build_timeline, render_timeline


class TestTimeline:
    def test_empty(self):
        tl = build_timeline([], GTX1650)
        assert tl.makespan_cycles == 0
        assert render_timeline(tl) == "(empty timeline)"

    def test_single_warp(self):
        tl = build_timeline([WarpJob(cycles=100.0, tag="w0")], GTX1650)
        assert tl.makespan_cycles == pytest.approx(100.0)
        assert tl.straggler().tag == "w0"

    def test_balanced_bag_fills_all_sms(self):
        jobs = [WarpJob(cycles=50.0, tag=f"w{i}") for i in range(GTX1650.sm_count * 4)]
        tl = build_timeline(jobs, GTX1650)
        assert all(len(sm) == 4 for sm in tl.per_sm)
        assert tl.utilization == pytest.approx(1.0)

    def test_straggler_detected(self):
        jobs = [WarpJob(cycles=10.0, tag=f"w{i}") for i in range(30)]
        jobs.append(WarpJob(cycles=10_000.0, tag="whale"))
        tl = build_timeline(jobs, GTX1650)
        assert tl.straggler().tag == "whale"
        assert tl.utilization < 0.5  # everyone else idles

    def test_render_shape(self):
        jobs = [WarpJob(cycles=10.0, tag=f"w{i}") for i in range(20)]
        text = render_timeline(build_timeline(jobs, GTX1650), width=40)
        lines = text.splitlines()
        assert len(lines) == GTX1650.sm_count + 2
        assert "utilization" in lines[-2]
        assert all("|" in line for line in lines[: GTX1650.sm_count])

    def test_busy_cycles_conserved(self):
        jobs = [WarpJob(cycles=float(c), tag=str(c)) for c in (5, 7, 11, 13)]
        tl = build_timeline(jobs, GTX1650)
        assert sum(tl.sm_busy_cycles) == pytest.approx(5 + 7 + 11 + 13)

