"""KPI proxies, CDFs, aggregation, and CSV writing."""

import math
import os

import numpy as np
import pytest

from hosim.engine import HandoverOutcome
from hosim.metrics import (
    CORE_DELAY_MS,
    INTERRUPTION_DELAY_MS,
    KPI_BLOCK_SAMPLES,
    PACKET_BITS,
    PLR_BUCKET_S,
    REFERENCE_PACKET_BYTES,
    RESIDUAL_BER,
    UTILIZATION,
    MetricsAccumulator,
    bler_array,
    cdf,
    format_value,
    kpi_row,
    mean,
    packet_delay_array,
    plr_array,
    residual_loss_floor,
    sample_stdev,
    throughput_array,
    write_csv_atomic,
)

BW = 100e6


class TestThroughputProxy:
    def test_zero_db_is_one_bit_per_hz(self):
        assert throughput_array(np.array([0.0]), BW, np.array([True]))[0] == pytest.approx(BW * 1.0 * UTILIZATION)

    def test_detached_is_zero(self):
        assert throughput_array(np.array([30.0]), BW, np.array([False]))[0] == 0.0

    def test_ten_db_ratio(self):
        at_0, at_10 = throughput_array(np.array([0.0, 10.0]), BW, np.array([True, True]))
        assert at_10 / at_0 == pytest.approx(math.log2(11) / math.log2(2), abs=1e-9)

    def test_strictly_increasing_in_sinr(self):
        values = throughput_array(np.linspace(-20, 30, 60), BW, np.ones(60, dtype=bool))
        assert (np.diff(values) > 0).all()

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            throughput_array(np.array([math.inf]), BW, np.array([True]))


class TestPlrProxy:
    def test_detached_loses_everything(self):
        assert plr_array(np.array([20.0]), np.array([False]))[0] == 1.0

    def test_below_threshold_loses_everything(self):
        assert plr_array(np.array([-10.0]), np.array([True]))[0] == 1.0

    def test_saturates_at_floor(self):
        at_60, at_1e9 = plr_array(np.array([60.0, 1e9]), np.array([True, True]))
        assert at_60 == pytest.approx(residual_loss_floor())
        assert at_1e9 == at_60

    def test_monotone_non_increasing(self):
        values = plr_array(np.linspace(-20, 30, 100), np.ones(100, dtype=bool))
        assert (np.diff(values) <= 0).all()

    def test_floor_matches_reference_packet(self):
        assert residual_loss_floor() == pytest.approx(0.03)
        # Longer packets scale the exponent.
        assert residual_loss_floor(packet_bits=24_000) == pytest.approx(1 - 0.97**2)


class TestBlerProxy:
    def test_threshold_and_floor(self):
        below, above, detached = bler_array(np.array([-1.0, 1.0, 10.0]), np.array([True, True, False]))
        assert below == 1.0
        assert above == pytest.approx(0.03)
        assert detached == 1.0


class TestDelayProxy:
    def test_detached_waits_out_interruption(self):
        throughput = throughput_array(np.array([10.0]), BW, np.array([False]))
        assert packet_delay_array(throughput)[0] == CORE_DELAY_MS + INTERRUPTION_DELAY_MS

    def test_attached_delay_decreases_with_sinr(self):
        at_0, at_20 = packet_delay_array(throughput_array(np.array([0.0, 20.0]), BW, np.array([True, True])))
        assert at_20 < at_0
        assert at_0 > CORE_DELAY_MS


class TestCdf:
    def test_single_sample(self):
        assert cdf([3.5]) == [(3.5, 1.0)]

    def test_median_read(self):
        pairs = cdf([3, 1, 4, 2])
        assert pairs == [(1.0, 0.25), (2.0, 0.5), (3.0, 0.75), (4.0, 1.0)]
        assert all(type(v) is float for pair in pairs for v in pair)
        # the median sits between the values at fractions 0.5 and 0.75
        values = {f: v for v, f in pairs}
        assert values[0.5] == 2.0
        assert values[0.75] == 3.0

    def test_empty_flagged(self):
        assert cdf([]) == []

    def test_fractions_non_decreasing_and_end_at_one(self):
        rng = np.random.default_rng(0)
        fractions = [f for _, f in cdf(rng.normal(size=257))]
        assert all(b >= a for a, b in zip(fractions, fractions[1:]))
        assert fractions[-1] == 1.0

    def test_idempotence(self):
        rng = np.random.default_rng(1)
        first = cdf(rng.uniform(size=100))
        assert cdf(v for v, _ in first) == first


def outcome(result="success", ping_pong=False, t=1.0):
    return HandoverOutcome(
        ue=1, source=0, target=1, decision_time=t, complete_time=t + 0.09,
        latency=0.09, result=result, ping_pong=ping_pong,
    )


class TestAccumulator:
    def test_counts_and_rates(self):
        acc = MetricsAccumulator(n_ues=2, duration_s=10.0, bandwidth_hz=BW)
        for i in range(100):
            acc.add_sample(i * 0.1, [5.0], [True])
        acc.outcomes += [outcome(), outcome(result="failure"), outcome(ping_pong=True)]
        acc.crossings += 2
        record = acc.finalize()
        assert record.ho_decisions == 3
        assert record.ho_successes + record.ho_failures == record.ho_decisions
        assert record.ho_failure_rate == pytest.approx(1 / 3)
        assert record.ping_pong_rate == pytest.approx(1 / 3)
        assert record.cell_crossing_rate == pytest.approx(2 / (10.0 * 2))
        assert record.mean_ho_latency_ms == pytest.approx(90.0)

    def test_plr_series_buckets_by_second(self):
        acc = MetricsAccumulator(n_ues=1, duration_s=3.0, bandwidth_hz=BW)
        for i in range(75):
            t = i * 0.04
            acc.add_sample(t, [20.0 if t < 2.0 else -20.0], [True])
        series = acc.plr_series()
        assert len(series) == 3
        assert series[0] == pytest.approx(residual_loss_floor())
        assert series[2] == 1.0

    def test_mean_of_runs_matches_recomputation(self):
        rng = np.random.default_rng(17)
        records = []
        for seed in range(100):
            acc = MetricsAccumulator(n_ues=1, duration_s=1.0, bandwidth_hz=BW)
            for _ in range(25):
                acc.add_sample(0.0, [float(rng.uniform(-10, 20))], [True])
            records.append(acc.finalize())
        throughputs = [r.mean_throughput_mbps for r in records]
        assert mean(throughputs) == pytest.approx(sum(throughputs) / 100, abs=1e-12)
        assert sample_stdev([1.0, 1.0, 1.0]) == 0.0

    def test_sums_run_left_to_right(self):
        # Compensated summation (builtin sum() from Python 3.12) gives 1/3.
        assert mean([1e16, 1.0, -1e16]) == 0.0

    def test_empty_run_finalizes_clean(self):
        record = MetricsAccumulator(n_ues=0, duration_s=1.0, bandwidth_hz=BW).finalize()
        assert record.ho_decisions == 0
        assert record.ho_failure_rate == 0.0


class PerSampleOracle:
    """The accumulator as it scored each sample on arrival: one proxy
    evaluation per KPI on Python floats, every sum added one at a time."""

    def __init__(self, bandwidth_hz):
        self.bandwidth_hz = bandwidth_hz
        self.sums = [0.0, 0.0, 0.0, 0.0]  # throughput, plr, bler, delay
        self.throughputs, self.delays = [], []
        self.buckets = {}  # bucket -> [plr sum, count]
        self.floor = 1.0 - (1.0 - RESIDUAL_BER) ** ((PACKET_BITS / 8.0) / REFERENCE_PACKET_BYTES)

    def add(self, time_s, sinr_db, attached):
        plr = 1.0 if not attached or sinr_db < -5.0 else self.floor
        if attached:
            if not math.isfinite(sinr_db):
                raise ValueError("sinr must be finite")
            throughput = self.bandwidth_hz * math.log2(1.0 + 10.0 ** (sinr_db / 10.0)) * UTILIZATION
        else:
            throughput = 0.0
        bler = 1.0 if not attached or sinr_db < 0.0 else RESIDUAL_BER
        delay = CORE_DELAY_MS + INTERRUPTION_DELAY_MS if throughput == 0.0 else CORE_DELAY_MS + PACKET_BITS / throughput * 1e3
        self.throughputs.append(throughput)
        self.delays.append(delay)
        for i, value in enumerate((throughput, plr, bler, delay)):
            self.sums[i] += value
        entry = self.buckets.setdefault(int(time_s // PLR_BUCKET_S), [0.0, 0])
        entry[0] += plr
        entry[1] += 1


def hexes(values):
    return [float(v).hex() for v in values]


def assert_scored_like_oracle(samples, bandwidth_hz=BW, tick=1):
    """The accumulator, handed ``tick`` consecutive samples a call (each
    call's sharing a time, as a report tick's do), against the oracle."""
    acc = MetricsAccumulator(n_ues=1, duration_s=1.0, bandwidth_hz=bandwidth_hz)
    oracle = PerSampleOracle(bandwidth_hz)
    for start in range(0, len(samples), tick):
        times, sinrs, attached = zip(*samples[start : start + tick])
        assert len(set(times)) == 1
        acc.add_sample(times[0], list(sinrs), list(attached))
    for time_s, sinr_db, attached in samples:
        oracle.add(time_s, sinr_db, attached)
    record = acc.finalize()
    assert acc.n_samples == len(samples)
    # Each sample's values, whose last bits a sum can round away.
    throughput = throughput_array(
        np.array([s for _, s, _ in samples], dtype=float), bandwidth_hz, np.array([a for _, _, a in samples], dtype=bool)
    )
    assert hexes(throughput) == hexes(oracle.throughputs)
    assert hexes(packet_delay_array(throughput)) == hexes(oracle.delays)
    assert hexes((acc.throughput_sum, acc.plr_sum, acc.bler_sum, acc.delay_sum)) == hexes(oracle.sums)
    buckets = sorted(oracle.buckets)
    assert hexes(record.plr_series) == hexes(oracle.buckets[b][0] / oracle.buckets[b][1] for b in buckets)
    assert acc.plr_starts_s() == tuple(b * PLR_BUCKET_S for b in buckets)
    assert acc._bucket_counts == {b: oracle.buckets[b][1] for b in buckets}
    n = max(len(samples), 1)
    assert record.mean_throughput_mbps == oracle.sums[0] / n / 1e6
    assert record.mean_packet_delay_ms == oracle.sums[3] / n
    return oracle


def random_samples(n, seed=3, ues_per_tick=7):
    """SINRs uniform over [-40, 60] dB, about one sample in five detached,
    ``ues_per_tick`` samples per 40 ms tick."""
    rng = np.random.default_rng(seed)
    sinrs = rng.uniform(-40.0, 60.0, size=n).tolist()
    attached = (rng.uniform(size=n) > 0.2).tolist()
    return [((i // ues_per_tick) * 0.04, s, a) for i, (s, a) in enumerate(zip(sinrs, attached))]


class TestBlockScoring:
    @pytest.mark.parametrize("n", [1, KPI_BLOCK_SAMPLES - 1, KPI_BLOCK_SAMPLES, KPI_BLOCK_SAMPLES + 1, 2 * KPI_BLOCK_SAMPLES + 1])
    def test_random_samples_equal_per_sample_scoring(self, n):
        assert_scored_like_oracle(random_samples(n))

    def test_buffer_scores_when_full(self):
        acc = MetricsAccumulator(n_ues=1, duration_s=1.0, bandwidth_hz=BW)
        for time_s, sinr_db, attached in random_samples(KPI_BLOCK_SAMPLES + 1):
            acc.add_sample(time_s, [sinr_db], [attached])
        assert acc.n_samples == KPI_BLOCK_SAMPLES
        assert len(acc._sinrs) == 1

    def test_tick_reaching_the_block_is_scored_whole(self):
        acc = MetricsAccumulator(n_ues=3, duration_s=1.0, bandwidth_hz=BW)
        acc.add_sample(0.0, [5.0] * (KPI_BLOCK_SAMPLES - 1), [True] * (KPI_BLOCK_SAMPLES - 1))
        assert acc.n_samples == 0
        acc.add_sample(0.04, [5.0, 6.0, 7.0], [True, False, True])
        assert acc.n_samples == KPI_BLOCK_SAMPLES + 2 and not acc._sinrs

    # The same samples, 500 a report time, handed over in ticks of 1, 2
    # and 500: every sum is the left-to-right scalar one, bit for bit.
    @pytest.mark.parametrize("tick", [1, 2, 500])
    def test_ticks_of_any_size_equal_per_sample_scoring(self, tick):
        assert_scored_like_oracle(random_samples(2 * KPI_BLOCK_SAMPLES + 1000, ues_per_tick=500), tick=tick)

    def test_bucket_straddling_a_flush(self):
        # 7 samples a tick, 175 a second: the second holding sample 4,095
        # also holds sample 4,096, so its sum continues across the flush.
        samples = random_samples(2 * KPI_BLOCK_SAMPLES + 1)
        edge = KPI_BLOCK_SAMPLES
        assert int(samples[edge - 1][0] // PLR_BUCKET_S) == int(samples[edge][0] // PLR_BUCKET_S)
        assert_scored_like_oracle(samples)

    def test_bucket_edges(self):
        # Each whole second and its float neighbours, and the report times
        # a 40 ms or 4 ms step gives (``step * k``, as a run takes them).
        edges = [t for k in range(12) for t in (math.nextafter(k, -math.inf), float(k), math.nextafter(k, math.inf))]
        times = sorted({*edges[1:], *(0.04 * k for k in range(300)), *(0.004 * k for k in range(3000))})
        assert {0.9999999999999999, 1.0, 2.0000000000000004} <= set(times)
        buckets = (np.array(times) // PLR_BUCKET_S).astype(int).tolist()
        assert buckets == [int(t // PLR_BUCKET_S) for t in times]
        sinrs = np.random.default_rng(5).uniform(-10.0, 10.0, size=len(times)).tolist()
        assert_scored_like_oracle([(t, s, k % 3 > 0) for k, (t, s) in enumerate(zip(times, sinrs))])

    def test_thresholds_and_their_neighbours(self):
        sinrs = []
        for threshold in (-5.0, 0.0):
            sinrs += [math.nextafter(threshold, -math.inf), threshold, math.nextafter(threshold, math.inf)]
        samples = [(0.0, s, a) for s in sinrs for a in (True, False)]
        assert_scored_like_oracle(samples)
        values, attached = np.array(sinrs), np.ones(len(sinrs), dtype=bool)
        assert plr_array(values, attached).tolist() == [1.0 if s < -5.0 else residual_loss_floor() for s in sinrs]
        assert bler_array(values, attached).tolist() == [1.0 if s < 0.0 else RESIDUAL_BER for s in sinrs]

    def test_throughput_underflowing_to_zero_waits_out_the_interruption(self):
        samples = [(0.0, -400.0, True), (0.0, 20.0, True)]
        oracle = assert_scored_like_oracle(samples)
        underflowed, rate = throughput_array(np.array([-400.0, 20.0]), BW, np.array([True, True])).tolist()
        assert underflowed == 0.0
        assert oracle.sums[3] == (CORE_DELAY_MS + INTERRUPTION_DELAY_MS) + (CORE_DELAY_MS + PACKET_BITS / rate * 1e3)

    def test_unordered_times(self):
        rng = np.random.default_rng(8)
        samples = [(t, s, a) for t, (_, s, a) in zip(rng.uniform(0.0, 9.0, size=5000).tolist(), random_samples(5000))]
        assert_scored_like_oracle(samples)

    @pytest.mark.parametrize("sinr_db", [math.nan, math.inf, -math.inf])
    def test_attached_non_finite_raises_by_finalize(self, sinr_db):
        acc = MetricsAccumulator(n_ues=1, duration_s=1.0, bandwidth_hz=BW)
        acc.add_sample(0.0, [5.0], [True])
        acc.add_sample(0.04, [sinr_db], [True])
        with pytest.raises(ValueError, match="sinr must be finite"):
            acc.finalize()

    @pytest.mark.parametrize("sinr_db", [math.nan, math.inf, -math.inf])
    def test_detached_non_finite_is_scored(self, sinr_db):
        acc = MetricsAccumulator(n_ues=1, duration_s=1.0, bandwidth_hz=BW)
        acc.add_sample(0.0, [sinr_db], [False])
        record = acc.finalize()
        assert record.mean_throughput_mbps == 0.0
        assert record.plr == record.bler == 1.0
        assert record.mean_packet_delay_ms == CORE_DELAY_MS + INTERRUPTION_DELAY_MS


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
        acc = MetricsAccumulator(n_ues=1, duration_s=1.0, bandwidth_hz=BW)
        acc.add_sample(0.0, [5.0], [True])
        row = kpi_row("lim2", 3, 200.0, acc.finalize())
        assert row[0] == "lim2"
        assert len(row) == 14
