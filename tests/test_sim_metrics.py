"""Unit tests for the measurement instruments."""

import pytest

from repro.sim import Counter, Samples, Simulator, UtilizationTracker


class TestCounter:
    def test_counts_and_total(self):
        counter = Counter()
        counter.add("validate")
        counter.add("validate")
        counter.add("fetch")
        assert counter.count("validate") == 2
        assert counter.count("fetch") == 1
        assert counter.count("missing") == 0
        assert counter.total == 3

    def test_as_dict_snapshot_is_independent(self):
        counter = Counter()
        counter.add("x")
        snapshot = counter.as_dict()
        snapshot["x"] = 99
        assert counter.count("x") == 1


class TestSamples:
    def test_mean_and_extremes(self):
        samples = Samples()
        for value in (1.0, 2.0, 3.0, 10.0):
            samples.add(value)
        assert samples.mean == pytest.approx(4.0)
        assert samples.maximum == 10.0
        assert samples.minimum == 1.0
        assert samples.total == 16.0
        assert len(samples) == 4

    def test_empty_statistics_are_zero(self):
        samples = Samples()
        assert samples.mean == 0.0
        assert samples.maximum == 0.0
        assert samples.percentile(0.5) == 0.0

    def test_percentile_nearest_rank(self):
        samples = Samples()
        for value in range(1, 101):
            samples.add(float(value))
        assert samples.percentile(0.5) == 50.0
        assert samples.percentile(0.99) == 99.0
        assert samples.percentile(1.0) == 100.0

    def test_values_returns_copy(self):
        samples = Samples()
        samples.add(1.0)
        samples.values.append(99.0)
        assert len(samples) == 1


class TestUtilizationTracker:
    def test_mean_utilization_half_busy(self):
        sim = Simulator()
        tracker = UtilizationTracker(sim, capacity=1, window=10.0)
        tracker.record(1)
        sim.run(until=50.0)
        tracker.record(0)
        sim.run(until=100.0)
        assert tracker.mean_utilization(0.0, 100.0) == pytest.approx(0.5)

    def test_windowed_peak(self):
        sim = Simulator()
        tracker = UtilizationTracker(sim, capacity=1, window=10.0)
        sim.run(until=20.0)
        tracker.record(1)  # busy 20..25
        sim.run(until=25.0)
        tracker.record(0)
        sim.run(until=100.0)
        series = dict(tracker.window_series())
        assert series[20.0] == pytest.approx(0.5)
        assert tracker.peak_utilization() == pytest.approx(0.5)
        # Long-run mean is much lower than the peak window.
        assert tracker.mean_utilization(0.0, 100.0) == pytest.approx(0.05)

    def test_capacity_scaling(self):
        sim = Simulator()
        tracker = UtilizationTracker(sim, capacity=2, window=10.0)
        tracker.record(1)  # half of capacity 2
        sim.run(until=10.0)
        tracker.record(0)
        assert tracker.mean_utilization(0.0, 10.0) == pytest.approx(0.5)

    def test_window_boundary_spanning(self):
        sim = Simulator()
        tracker = UtilizationTracker(sim, capacity=1, window=10.0)
        sim.run(until=5.0)
        tracker.record(1)  # busy 5..15: split across two windows
        sim.run(until=15.0)
        tracker.record(0)
        series = dict(tracker.window_series())
        assert series[0.0] == pytest.approx(0.5)
        assert series[10.0] == pytest.approx(0.5)

    def test_windowed_mean_excluding_warmup(self):
        sim = Simulator()
        tracker = UtilizationTracker(sim, capacity=1, window=10.0)
        tracker.record(1)  # busy the whole first 50 s (warm-up)
        sim.run(until=50.0)
        tracker.record(0)
        sim.run(until=100.0)
        assert tracker.mean_utilization(50.0, 100.0) == pytest.approx(0.0)
        assert tracker.mean_utilization(0.0, 50.0) == pytest.approx(1.0)

    def test_empty_tracker(self):
        sim = Simulator()
        tracker = UtilizationTracker(sim)
        assert tracker.mean_utilization() == 0.0
        assert tracker.peak_utilization() == 0.0
        assert tracker.window_series() == []
