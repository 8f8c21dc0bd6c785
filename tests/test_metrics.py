"""KPI proxies, CDFs, aggregation, and CSV writing."""

import math
import os

import numpy as np
import pytest

from hosim.engine import HandoverOutcome
from hosim.metrics import (
    CORE_DELAY_MS,
    INTERRUPTION_DELAY_MS,
    UTILIZATION,
    MetricsAccumulator,
    bler_proxy,
    cdf,
    format_value,
    kpi_row,
    mean,
    packet_delay_proxy,
    plr_proxy,
    residual_loss_floor,
    sample_stdev,
    throughput_proxy,
    write_csv_atomic,
)

BW = 100e6


class TestThroughputProxy:
    def test_zero_db_is_one_bit_per_hz(self):
        assert throughput_proxy(0.0, BW, True) == pytest.approx(BW * 1.0 * UTILIZATION)

    def test_detached_is_zero(self):
        assert throughput_proxy(30.0, BW, False) == 0.0

    def test_ten_db_ratio(self):
        ratio = throughput_proxy(10.0, BW, True) / throughput_proxy(0.0, BW, True)
        assert ratio == pytest.approx(math.log2(11) / math.log2(2), abs=1e-9)

    def test_strictly_increasing_in_sinr(self):
        values = [throughput_proxy(s, BW, True) for s in np.linspace(-20, 30, 60)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            throughput_proxy(float("inf"), BW, True)


class TestPlrProxy:
    def test_detached_loses_everything(self):
        assert plr_proxy(20.0, False) == 1.0

    def test_below_threshold_loses_everything(self):
        assert plr_proxy(-10.0, True) == 1.0

    def test_saturates_at_floor(self):
        assert plr_proxy(60.0, True) == pytest.approx(residual_loss_floor())
        assert plr_proxy(1e9, True) == plr_proxy(60.0, True)

    def test_monotone_non_increasing(self):
        values = [plr_proxy(s, True) for s in np.linspace(-20, 30, 100)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_floor_matches_reference_packet(self):
        assert residual_loss_floor() == pytest.approx(0.03)
        # Longer packets scale the exponent.
        assert residual_loss_floor(packet_bits=24_000) == pytest.approx(1 - 0.97**2)


class TestBlerProxy:
    def test_threshold_and_floor(self):
        assert bler_proxy(-1.0, True) == 1.0
        assert bler_proxy(1.0, True) == pytest.approx(0.03)
        assert bler_proxy(10.0, False) == 1.0


class TestDelayProxy:
    def test_detached_waits_out_interruption(self):
        assert packet_delay_proxy(throughput_proxy(10.0, BW, False)) == CORE_DELAY_MS + INTERRUPTION_DELAY_MS

    def test_attached_delay_decreases_with_sinr(self):
        delay_at = lambda sinr_db: packet_delay_proxy(throughput_proxy(sinr_db, BW, True))
        assert delay_at(20.0) < delay_at(0.0)
        assert delay_at(0.0) > CORE_DELAY_MS


class TestCdf:
    def test_single_sample(self):
        series = cdf([3.5])
        assert series.values == (3.5,)
        assert series.fractions == (1.0,)

    def test_median_read(self):
        series = cdf([3, 1, 4, 2])
        assert series.values == (1.0, 2.0, 3.0, 4.0)
        assert series.fractions == (0.25, 0.5, 0.75, 1.0)
        # the median sits between the values at fractions 0.5 and 0.75
        assert series.values[series.fractions.index(0.5)] == 2.0
        assert series.values[series.fractions.index(0.75)] == 3.0

    def test_empty_flagged(self):
        series = cdf([])
        assert series.values == ()
        assert series.fractions == ()

    def test_fractions_non_decreasing_and_end_at_one(self):
        rng = np.random.default_rng(0)
        series = cdf(rng.normal(size=257))
        assert all(b >= a for a, b in zip(series.fractions, series.fractions[1:]))
        assert series.fractions[-1] == 1.0

    def test_idempotence(self):
        rng = np.random.default_rng(1)
        first = cdf(rng.uniform(size=100))
        second = cdf(first.values)
        assert second.fractions == first.fractions
        assert second.values == first.values


def outcome(result="success", ping_pong=False, t=1.0):
    return HandoverOutcome(
        ue=1, source=0, target=1, decision_time=t, complete_time=t + 0.09,
        latency=0.09, result=result, ping_pong=ping_pong,
    )


class TestAccumulator:
    def test_counts_and_rates(self):
        acc = MetricsAccumulator(n_ues=2, duration_s=10.0)
        for i in range(100):
            acc.add_sample(i * 0.1, 5.0, BW, attached=True)
        acc.add_outcome(outcome())
        acc.add_outcome(outcome(result="failure"))
        acc.add_outcome(outcome(ping_pong=True))
        acc.add_crossing()
        acc.add_crossing()
        record = acc.finalize()
        assert record.ho_decisions == 3
        assert record.ho_successes + record.ho_failures == record.ho_decisions
        assert record.ho_failure_rate == pytest.approx(1 / 3)
        assert record.ping_pong_rate == pytest.approx(1 / 3)
        assert record.cell_crossing_rate == pytest.approx(2 / (10.0 * 2))
        assert record.mean_ho_latency_ms == pytest.approx(90.0)

    def test_plr_series_buckets_by_second(self):
        acc = MetricsAccumulator(n_ues=1, duration_s=3.0)
        for i in range(75):
            t = i * 0.04
            acc.add_sample(t, 20.0 if t < 2.0 else -20.0, BW, attached=True)
        series = acc.plr_series()
        assert len(series) == 3
        assert series[0] == pytest.approx(residual_loss_floor())
        assert series[2] == 1.0

    def test_mean_of_runs_matches_recomputation(self):
        rng = np.random.default_rng(17)
        records = []
        for seed in range(100):
            acc = MetricsAccumulator(n_ues=1, duration_s=1.0)
            for _ in range(25):
                acc.add_sample(0.0, float(rng.uniform(-10, 20)), BW, attached=True)
            records.append(acc.finalize())
        throughputs = [r.mean_throughput_mbps for r in records]
        assert mean(throughputs) == pytest.approx(sum(throughputs) / 100, abs=1e-12)
        assert sample_stdev([1.0, 1.0, 1.0]) == 0.0

    def test_sums_run_left_to_right(self):
        # Compensated summation (builtin sum() from Python 3.12) gives 1/3.
        assert mean([1e16, 1.0, -1e16]) == 0.0

    def test_empty_run_finalizes_clean(self):
        record = MetricsAccumulator(n_ues=0, duration_s=1.0).finalize()
        assert record.ho_decisions == 0
        assert record.ho_failure_rate == 0.0


class TestCsv:
    def test_atomic_write_and_determinism(self, tmp_path):
        path = str(tmp_path / "out" / "kpis.csv")
        rows = [("lim2", 1, 200.0, 1.23456789012345, True)]
        write_csv_atomic(path, ("a", "b", "c", "d", "e"), rows)
        write_csv_atomic(str(tmp_path / "out" / "kpis2.csv"), ("a", "b", "c", "d", "e"), rows)
        first = (tmp_path / "out" / "kpis.csv").read_bytes()
        second = (tmp_path / "out" / "kpis2.csv").read_bytes()
        assert first == second
        assert not os.path.exists(path + ".tmp")

    @pytest.mark.parametrize("existing", [None, b"a,b\r\nold,1\r\n"], ids=["no-target", "existing-target"])
    def test_failed_write_leaves_no_temp_and_target_as_it_was(self, tmp_path, existing):
        path = tmp_path / "kpis.csv"
        if existing is not None:
            path.write_bytes(existing)

        def rows():
            yield ("lim2", 1)
            raise ValueError("row failed")

        with pytest.raises(ValueError, match="row failed"):
            write_csv_atomic(str(path), ("a", "b"), rows())
        assert not os.path.exists(str(path) + ".tmp")
        if existing is None:
            assert not path.exists()
        else:
            assert path.read_bytes() == existing

    def test_format_value(self):
        assert format_value(True) == "1"
        assert format_value(False) == "0"
        assert format_value(0.5) == "0.5"
        assert format_value("x") == "x"

    def test_kpi_row_shape(self):
        acc = MetricsAccumulator(n_ues=1, duration_s=1.0)
        acc.add_sample(0.0, 5.0, BW, True)
        row = kpi_row("lim2", 3, 200.0, acc.finalize())
        assert row[0] == "lim2"
        assert len(row) == 14
