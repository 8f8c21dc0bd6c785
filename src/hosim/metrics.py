"""KPI proxies and aggregation: throughput, loss, delay, handover
statistics, CDFs, and per-second loss series.

Link-level traffic is not simulated; instead each measurement sample is
scored with closed-form proxies:

* throughput: Shannon capacity times a fixed 0.6 utilization, zero
  while a handover interruption is in progress;
* packet loss: 1.0 when detached or below a -5 dB demodulation
  threshold, otherwise a residual floor derived from the configured
  bit error rate over a 1500-byte reference packet;
* block error: 1.0 below a 0 dB threshold, else the residual rate;
* packet delay: fixed core delay plus transmission time of a
  1500-byte packet, replaced by the interruption window when detached.

Each proxy is written once, over arrays.  A run's accumulator takes a
report tick's samples in one call, only buffers them, and scores them
in blocks of at least ``KPI_BLOCK_SAMPLES``, the remainder when a result
is read.
Scoring is exact: numpy does only IEEE arithmetic, comparisons and
selections, ``math.pow`` and ``math.log2`` are mapped over the block,
and each running sum continues left to right with ``np.add.accumulate``
from its current value.  So every sum equals adding the samples one at a
time, bit for bit, wherever the block edges fall.

Aggregation is a plain average over samples, weighted equally (samples
arrive at a fixed report cadence).
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
from dataclasses import dataclass, field, fields
from itertools import repeat

import numpy as np

from .engine import HandoverOutcome

UTILIZATION = 0.6
PLR_SINR_THRESHOLD_DB = -5.0
BLER_SINR_THRESHOLD_DB = 0.0
RESIDUAL_BER = 0.03
PACKET_BITS = 12_000
REFERENCE_PACKET_BYTES = 1_500
CORE_DELAY_MS = 2.0
INTERRUPTION_DELAY_MS = 90.0
PLR_BUCKET_S = 1.0


def residual_loss_floor(packet_bits: int = PACKET_BITS, ber: float = RESIDUAL_BER) -> float:
    """Loss floor for a packet: the configured error rate is taken per
    1500-byte reference block, so other lengths scale the exponent."""
    blocks = (packet_bits / 8.0) / REFERENCE_PACKET_BYTES
    return 1.0 - (1.0 - ber) ** blocks


RESIDUAL_LOSS_FLOOR = residual_loss_floor()
# Samples an accumulator buffers before it scores them (the tick that
# reaches the count is buffered whole).  A full buffer holds about 200 KB
# (a float object and three list slots per sample), and scoring it takes
# a few 32 KiB arrays and one 128 KiB block of sums.  At this size the
# numpy calls per block already cost far less than the mapped pow and
# log2, so a larger block would only hold more memory.
KPI_BLOCK_SAMPLES = 4096


def throughput_array(sinr_db: np.ndarray, bandwidth_hz: float, attached: np.ndarray) -> np.ndarray:
    """Shannon-capacity throughput in bits/s of each sample; zero while
    detached.  An attached, non-finite SINR raises ValueError."""
    sinr_db = sinr_db[attached]
    if not np.isfinite(sinr_db).all():
        raise ValueError("sinr must be finite")
    # math's pow and log2, mapped: numpy's own differ in the last bit.
    ratio = np.array(list(map(math.pow, repeat(10.0), (sinr_db / 10.0).tolist())))
    capacity = np.array(list(map(math.log2, (1.0 + ratio).tolist())))
    throughput = np.zeros(len(attached))
    throughput[attached] = bandwidth_hz * capacity * UTILIZATION
    return throughput


def plr_array(sinr_db: np.ndarray, attached: np.ndarray) -> np.ndarray:
    """Per-packet loss probability; monotone non-increasing in SINR."""
    return np.where(attached & ~(sinr_db < PLR_SINR_THRESHOLD_DB), RESIDUAL_LOSS_FLOOR, 1.0)


def bler_array(sinr_db: np.ndarray, attached: np.ndarray) -> np.ndarray:
    """Transport-block error proxy with a harder 0 dB threshold."""
    return np.where(attached & ~(sinr_db < BLER_SINR_THRESHOLD_DB), RESIDUAL_BER, 1.0)


def packet_delay_array(throughput_bps: np.ndarray) -> np.ndarray:
    """Packet delay in ms: core delay plus transmission time at
    ``throughput_array``'s rate, or the interruption window where that
    rate is zero (detached while a handover executes, or a rate that
    underflows)."""
    stalled = throughput_bps == 0.0
    rate = np.where(stalled, 1.0, throughput_bps)
    return np.where(stalled, CORE_DELAY_MS + INTERRUPTION_DELAY_MS, CORE_DELAY_MS + PACKET_BITS / rate * 1e3)


@dataclass(frozen=True)
class KpiRecord:
    """Per-run KPI aggregates."""

    mean_throughput_mbps: float
    plr: float
    mean_packet_delay_ms: float
    mean_ho_latency_ms: float
    ho_decisions: int
    ho_successes: int
    ho_failures: int
    ho_failure_rate: float
    ping_pong_rate: float
    cell_crossing_rate: float
    bler: float
    plr_series: tuple[float, ...] = ()


def cdf(samples) -> list[tuple[float, float]]:
    """The samples sorted, each as a (value, cumulative fraction) pair; the
    last fraction is 1, and no samples give no pairs."""
    values = sorted(float(s) for s in samples)
    return [(v, (i + 1) / len(values)) for i, v in enumerate(values)]


@dataclass
class MetricsAccumulator:
    """Collects per-sample proxies and handover outcomes for one run.

    ``add_sample`` takes one report tick's samples and only buffers them;
    the sums, ``n_samples`` and the buckets
    take in the buffered samples when a block fills and when ``finalize``,
    ``plr_series`` or ``plr_starts_s`` is called.  An attached, non-finite
    SINR raises ValueError when its block is scored."""

    n_ues: int
    duration_s: float
    bandwidth_hz: float
    throughput_sum: float = 0.0
    plr_sum: float = 0.0
    bler_sum: float = 0.0
    delay_sum: float = 0.0
    n_samples: int = 0
    crossings: int = 0
    outcomes: list = field(default_factory=list)
    _bucket_sums: dict[int, float] = field(default_factory=dict)
    _bucket_counts: dict[int, int] = field(default_factory=dict)
    _times: list[float] = field(default_factory=list)
    _sinrs: list[float] = field(default_factory=list)
    _attached: list[bool] = field(default_factory=list)

    def add_sample(self, time_s: float, sinr_db: list[float], attached: list[bool]) -> None:
        """Buffer one report tick's samples at ``time_s``: each UE's SINR and
        whether it is attached, in UE order."""
        self._times += (time_s,) * len(sinr_db)
        self._sinrs += sinr_db
        self._attached += attached
        if len(self._times) >= KPI_BLOCK_SAMPLES:
            self._score()

    def _score(self) -> None:
        """Score the buffered samples in one array pass and empty the buffer."""
        if not self._times:
            return
        sinr_db = np.array(self._sinrs, dtype=float)
        attached = np.array(self._attached, dtype=bool)
        throughput = throughput_array(sinr_db, self.bandwidth_hz, attached)
        plr = plr_array(sinr_db, attached)
        # Row 0 holds the running sums, each later row one sample's values.
        block = np.empty((len(sinr_db) + 1, 4))
        block[0] = self.throughput_sum, self.plr_sum, self.bler_sum, self.delay_sum
        block[1:, 0] = throughput
        block[1:, 1] = plr
        block[1:, 2] = bler_array(sinr_db, attached)
        block[1:, 3] = packet_delay_array(throughput)
        np.add.accumulate(block, axis=0, out=block)
        self.throughput_sum, self.plr_sum, self.bler_sum, self.delay_sum = block[-1].tolist()
        self.n_samples += len(sinr_db)
        self._add_to_buckets(np.array(self._times, dtype=float), plr)
        self._times.clear()
        self._sinrs.clear()
        self._attached.clear()

    def _add_to_buckets(self, times: np.ndarray, plr: np.ndarray) -> None:
        """Add each sample's loss to its per-second bucket, in sample order.
        Each sample takes the bucket ``time_s // PLR_BUCKET_S`` (numpy's
        float floor division, which is Python's), and each run of one
        bucket is summed on from that bucket's running sum."""
        keys = (times // PLR_BUCKET_S).astype(int)
        lows = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1]))).tolist()
        for b, lo, hi in zip(keys[lows].tolist(), lows, [*lows[1:], len(times)]):
            segment = np.concatenate(([self._bucket_sums.get(b, 0.0)], plr[lo:hi]))
            self._bucket_sums[b] = np.add.accumulate(segment)[-1].item()
            self._bucket_counts[b] = self._bucket_counts.get(b, 0) + (hi - lo)

    def plr_series(self) -> tuple[float, ...]:
        self._score()
        return tuple(
            self._bucket_sums[b] / self._bucket_counts[b] for b in sorted(self._bucket_sums)
        )

    def plr_starts_s(self) -> tuple[float, ...]:
        """Start time of each ``plr_series`` bucket; a bucket without samples has no entry."""
        self._score()
        return tuple(b * PLR_BUCKET_S for b in sorted(self._bucket_sums))

    def finalize(self) -> KpiRecord:
        self._score()
        n = max(self.n_samples, 1)
        completed = len(self.outcomes)
        failures = sum(1 for o in self.outcomes if o.result == "failure")
        successes = completed - failures
        ping_pongs = sum(1 for o in self.outcomes if o.ping_pong)
        latency_ms = (
            _sum_in_order(o.latency for o in self.outcomes) / completed * 1e3 if completed else 0.0
        )
        return KpiRecord(
            mean_throughput_mbps=self.throughput_sum / n / 1e6,
            plr=self.plr_sum / n,
            mean_packet_delay_ms=self.delay_sum / n,
            mean_ho_latency_ms=latency_ms,
            ho_decisions=completed,
            ho_successes=successes,
            ho_failures=failures,
            ho_failure_rate=failures / completed if completed else 0.0,
            ping_pong_rate=ping_pongs / completed if completed else 0.0,
            cell_crossing_rate=self.crossings / (self.duration_s * max(self.n_ues, 1)),
            bler=self.bler_sum / n,
            plr_series=self.plr_series(),
        )


# Every KpiRecord field but the per-second series, in declaration order.
_KPI_FIELDS = tuple(f.name for f in fields(KpiRecord) if f.name != "plr_series")
KPI_HEADER = ("policy", "seed", "speed_kmh", *_KPI_FIELDS)

EVENT_HEADER = (
    "time", "ue", "source", "target", "ttt_ms", "hyst_db", "result", "latency_ms", "ping_pong",
)


def format_value(value) -> str:
    """Deterministic CSV cell formatting (floats via repr-style %.12g)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


@contextlib.contextmanager
def open_atomic(path: str, mode: str = "w", **kwargs):
    """Open a temp file next to ``path`` and rename it over ``path`` once
    the block completes, so readers never see a partially written file.
    A block that raises leaves no temp file and ``path`` as it was."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = path + ".tmp"
    fh = open(tmp, mode, **kwargs)
    try:
        with fh:
            yield fh
    except BaseException:
        os.unlink(tmp)
        raise
    os.replace(tmp, path)


def write_csv_atomic(path: str, header, rows) -> None:
    """Write a CSV via a temp file and rename, so readers never see a
    partially written file."""
    with open_atomic(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_value(v) for v in row])


def kpi_row(policy: str, seed: int, speed_kmh: float, record: KpiRecord) -> tuple:
    return (policy, seed, speed_kmh, *(getattr(record, name) for name in _KPI_FIELDS))


def event_row(outcome: HandoverOutcome) -> tuple:
    return (
        outcome.decision_time, outcome.ue, outcome.source, outcome.target,
        outcome.ttt_ms, outcome.hyst_db, outcome.result, outcome.latency * 1e3,
        outcome.ping_pong,
    )


def _sum_in_order(values) -> float:
    """Left-to-right float sum.  The builtin sum() compensates rounding from
    Python 3.12 on, which would move the last bit of every output."""
    total = 0.0
    for v in values:
        total += v
    return total


def mean(values) -> float:
    values = list(values)
    return _sum_in_order(values) / len(values) if values else 0.0


def sample_stdev(values) -> float:
    values = list(values)
    if len(values) < 2:
        return 0.0
    m = mean(values)
    return math.sqrt(_sum_in_order((v - m) ** 2 for v in values) / (len(values) - 1))
