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

Aggregation is a plain average over samples, weighted equally (samples
arrive at a fixed report cadence).
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
from dataclasses import dataclass, field, fields

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


def throughput_proxy(sinr_db: float, bandwidth_hz: float, attached: bool) -> float:
    """Shannon-capacity throughput in bits/s; zero while detached."""
    if not attached:
        return 0.0
    if not math.isfinite(sinr_db):
        raise ValueError("sinr must be finite")
    return bandwidth_hz * math.log2(1.0 + 10.0 ** (sinr_db / 10.0)) * UTILIZATION


def plr_proxy(sinr_db: float, attached: bool) -> float:
    """Per-packet loss probability; monotone non-increasing in SINR."""
    if not attached or sinr_db < PLR_SINR_THRESHOLD_DB:
        return 1.0
    return residual_loss_floor()


def bler_proxy(sinr_db: float, attached: bool) -> float:
    """Transport-block error proxy with a harder 0 dB threshold."""
    if not attached or sinr_db < BLER_SINR_THRESHOLD_DB:
        return 1.0
    return RESIDUAL_BER


def packet_delay_proxy(throughput_bps: float) -> float:
    """Packet delay in ms: core delay plus transmission time at
    ``throughput_proxy``'s rate, or the interruption window when that rate
    is zero (detached while a handover executes)."""
    if throughput_bps == 0.0:
        return CORE_DELAY_MS + INTERRUPTION_DELAY_MS
    return CORE_DELAY_MS + PACKET_BITS / throughput_bps * 1e3


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


@dataclass(frozen=True)
class CdfSeries:
    """Sorted sample values with cumulative fractions ending at 1."""

    values: tuple[float, ...]
    fractions: tuple[float, ...]


def cdf(samples) -> CdfSeries:
    values = sorted(float(s) for s in samples)
    n = len(values)
    if n == 0:
        return CdfSeries((), ())
    return CdfSeries(tuple(values), tuple((i + 1) / n for i in range(n)))


@dataclass
class MetricsAccumulator:
    """Collects per-sample proxies and handover outcomes for one run."""

    n_ues: int
    duration_s: float
    throughput_sum: float = 0.0
    plr_sum: float = 0.0
    bler_sum: float = 0.0
    delay_sum: float = 0.0
    n_samples: int = 0
    crossings: int = 0
    outcomes: list = field(default_factory=list)
    _bucket_sums: dict[int, float] = field(default_factory=dict)
    _bucket_counts: dict[int, int] = field(default_factory=dict)

    def add_sample(self, time_s: float, sinr_db: float, bandwidth_hz: float, attached: bool) -> None:
        plr = plr_proxy(sinr_db, attached)
        throughput = throughput_proxy(sinr_db, bandwidth_hz, attached)
        self.throughput_sum += throughput
        self.plr_sum += plr
        self.bler_sum += bler_proxy(sinr_db, attached)
        self.delay_sum += packet_delay_proxy(throughput)
        self.n_samples += 1
        bucket = int(time_s // PLR_BUCKET_S)
        self._bucket_sums[bucket] = self._bucket_sums.get(bucket, 0.0) + plr
        self._bucket_counts[bucket] = self._bucket_counts.get(bucket, 0) + 1

    def add_crossing(self) -> None:
        self.crossings += 1

    def add_outcome(self, outcome: HandoverOutcome) -> None:
        self.outcomes.append(outcome)

    def plr_series(self) -> tuple[float, ...]:
        return tuple(
            self._bucket_sums[b] / self._bucket_counts[b] for b in sorted(self._bucket_sums)
        )

    def plr_starts_s(self) -> tuple[float, ...]:
        """Start time of each ``plr_series`` bucket; a bucket without samples has no entry."""
        return tuple(b * PLR_BUCKET_S for b in sorted(self._bucket_sums))

    def finalize(self) -> KpiRecord:
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
