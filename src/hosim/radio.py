"""Cell sites, propagation, and measurement-report generation.

Propagation is a log-distance path loss model anchored at a free-space
reference distance of 1 m, with block-constant log-normal shadowing per
(site, UE) pair that is redrawn every 50 m of UE travel.  Every site
shares one link budget (transmit power, carrier, bandwidth, noise
figure), so a site is only an id and a position.  RSRP is the wideband
received power scaled down to one resource element (120 kHz subcarrier
spacing).  Ambient RF noise at each UE follows a bounded random walk,
stepped once per report; it degrades measured RSRP additively in dB, and
the report carries a noisy reading of it.

A tick's radio work for one UE is one ``RadioEnvironment.row``: a single
pass over the id-ordered sites that yields every site's wideband power,
the RSSI and interference sums of their linear powers, and the nearest
site.  The report, the SINR and the execution window all read that row.
Only a handover's completion looks up one site, through ``true_rsrp_of``
and ``shadowing_db``; both paths share ``_received_dbm``, the link budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

SPEED_OF_LIGHT = 299_792_458.0
REFERENCE_DISTANCE_M = 1.0
SUBCARRIER_SPACING_HZ = 120e3
SUBCARRIERS_PER_RB = 12
MAX_NEIGHBORS = 8
DETECTION_THRESHOLD_DBM = -125.0
SHADOWING_DECORRELATION_M = 50.0


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def linear_to_db(value: float) -> float:
    return 10.0 * math.log10(value)


@dataclass(frozen=True)
class CellSite:
    """A gNB site; its transmit settings are the run's shared link budget."""

    id: int
    position: tuple[float, float]


@dataclass(frozen=True)
class ChannelParams:
    """Propagation and noise parameters shared by every link."""

    path_loss_exponent: float = 3.0
    shadowing_sigma_db: float = 4.0
    thermal_noise_density_dbm_hz: float = -174.0
    meas_noise_sigma_db: float = 2.0
    env_noise_mean_dbm: float = -100.0
    env_noise_sigma_db: float = 2.0

    def __post_init__(self):
        if self.path_loss_exponent <= 0:
            raise ValueError("path_loss_exponent must be positive")
        for name in ("shadowing_sigma_db", "meas_noise_sigma_db", "env_noise_sigma_db"):
            # The sign bit, so that -0.0 (which numpy's normal refuses) fails too.
            if math.copysign(1.0, getattr(self, name)) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class MeasurementEntry:
    cell: int
    rsrp_dbm: float
    rsrq_db: float

    def __post_init__(self):
        if not (math.isfinite(self.rsrp_dbm) and math.isfinite(self.rsrq_db)):
            raise ValueError("measurement entries must be finite")


@dataclass(frozen=True)
class MeasurementReport:
    """Per-UE snapshot of serving and neighbor cell measurements plus the
    UE's reading of its ambient noise level."""

    ue: int
    timestamp: float
    serving: MeasurementEntry
    neighbors: tuple[MeasurementEntry, ...]
    env_noise_dbm: float

    def __post_init__(self):
        if any(n.cell == self.serving.cell for n in self.neighbors):
            raise ValueError("serving cell must not appear in neighbor list")


class RadioRow(NamedTuple):
    """What one UE's pass over the id-ordered sites yields at one instant."""

    wideband: list[float]  # each site's wideband received power in dBm, by id
    rssi_mw: float  # every site's linear power, summed left to right
    serving_mw: float  # the serving site's linear power
    interference_mw: float  # the other sites' linear powers, summed left to right
    nearest: int  # id of the closest site, a tie to the lower id


def free_space_reference_db(carrier_freq_hz: float) -> float:
    """Free-space path loss at the 1 m reference distance."""
    return 20.0 * math.log10(4.0 * math.pi * REFERENCE_DISTANCE_M * carrier_freq_hz / SPEED_OF_LIGHT)


def n_resource_blocks(bandwidth_hz: float) -> int:
    return int(bandwidth_hz // (SUBCARRIERS_PER_RB * SUBCARRIER_SPACING_HZ))


def re_scaling_db(bandwidth_hz: float) -> float:
    """Wideband-power to per-resource-element scaling in dB."""
    return linear_to_db(SUBCARRIERS_PER_RB * n_resource_blocks(bandwidth_hz))


class RadioEnvironment:
    """Stateful channel view for one simulation run.

    Takes the run's one link budget at construction and derives its
    per-run constants once: the 1 m reference path loss, the
    resource-element scaling, the thermal noise power and the RSRQ's
    10*log10(N_RB) term.  Site ids are 0..n-1, so ``sites`` and every
    per-site list are indexed by id.  Owns the per-(site, UE) shadowing
    cache and the per-UE ambient-noise random walks, which only
    ``generate_report`` steps and reads.  Confined to a single
    simulation instance; a run is single-threaded.
    """

    def __init__(
        self,
        sites: list[CellSite],
        params: ChannelParams,
        rng,
        shadow_rng,
        *,
        tx_power_dbm: float,
        carrier_freq_hz: float,
        bandwidth_hz: float,
        noise_figure_db: float,
    ):
        self.sites = sorted(sites, key=lambda s: s.id)
        if [s.id for s in self.sites] != list(range(len(self.sites))):
            raise ValueError("site ids must be 0..n-1")
        self.params = params
        self.rng = rng
        # Shadowing draws on their own stream so redraw timing (which can
        # shift with the step size) never perturbs measurement noise.
        self.shadow_rng = shadow_rng
        # (cell, ue) -> (shadowing value, UE position it was drawn at)
        self._shadow: dict[tuple[int, int], tuple[float, tuple[float, float]]] = {}
        self._site_positions = [s.position for s in self.sites]
        self._env_noise: dict[int, float] = {}
        self._tx_dbm = tx_power_dbm
        self._reference_db = free_space_reference_db(carrier_freq_hz)
        self._slope_db = 10.0 * params.path_loss_exponent
        self._re_scaling_db = re_scaling_db(bandwidth_hz)
        self._noise_mw = db_to_linear(
            params.thermal_noise_density_dbm_hz + linear_to_db(bandwidth_hz) + noise_figure_db
        )
        self._rsrq_offset_db = linear_to_db(n_resource_blocks(bandwidth_hz))

    def shadowing_db(self, cell: int, ue: int, position: tuple[float, float]) -> float:
        """Block-constant shadowing, redrawn after 50 m of UE travel from the
        ``(x, y)`` float tuple ``position`` it was drawn at."""
        key = (cell, ue)
        state = self._shadow.get(key)
        if state is not None and math.dist(state[1], position) < SHADOWING_DECORRELATION_M:
            return state[0]
        value = float(self.shadow_rng.normal(0.0, self.params.shadowing_sigma_db))
        self._shadow[key] = (value, position)
        return value

    def _received_dbm(self, distance_m: float, shadowing_db: float) -> float:
        """The link budget: wideband received power at ``distance_m`` from a
        site (below 1 m it clamps to 1 m), less the log-distance path loss
        and the shadowing."""
        if distance_m < REFERENCE_DISTANCE_M:
            distance_m = REFERENCE_DISTANCE_M
        return self._tx_dbm - (self._reference_db + self._slope_db * math.log10(distance_m)) - shadowing_db

    def true_rsrp_of(self, cell: int, ue: int, position: tuple[float, float]) -> float:
        """Ground-truth RSRP in dBm of one cell at the UE (``position`` an
        ``(x, y)`` tuple of floats), with its current shadowing."""
        shadowing = self.shadowing_db(cell, ue, position)
        sx, sy = self._site_positions[cell]
        return self._received_dbm(math.hypot(sx - position[0], sy - position[1]), shadowing) - self._re_scaling_db

    def row(self, ue: int, position: tuple[float, float], serving: int) -> RadioRow:
        """One pass over the id-ordered sites at the UE's ``position`` (an
        ``(x, y)`` tuple of floats) while it is served by ``serving``.

        Each site's distance, current shadowing (redrawn here, in id order,
        exactly as ``shadowing_db`` would) and wideband power are computed
        once; the power is raised to linear once and summed left to right
        into the RSSI (every site) and the interference (every site but
        ``serving``).  The nearest site is the first strict minimum of the
        unclamped distance, so an exact tie goes to the lower id.
        """
        x, y = position
        shadow = self._shadow
        received = self._received_dbm
        draw, sigma = self.shadow_rng.normal, self.params.shadowing_sigma_db
        wideband = []
        rssi_mw = serving_mw = interference_mw = 0.0
        nearest, nearest_m = 0, math.inf
        for cid, (sx, sy) in enumerate(self._site_positions):
            distance = math.hypot(sx - x, sy - y)
            if distance < nearest_m:
                nearest, nearest_m = cid, distance
            key = (cid, ue)
            state = shadow.get(key)
            if state is None or not math.dist(state[1], position) < SHADOWING_DECORRELATION_M:
                state = shadow[key] = (float(draw(0.0, sigma)), position)
            power = received(distance, state[0])
            wideband.append(power)
            mw = 10.0 ** (power / 10.0)
            rssi_mw += mw
            if cid == serving:
                serving_mw = mw
            else:
                interference_mw += mw
        return RadioRow(wideband, rssi_mw, serving_mw, interference_mw, nearest)

    def sinr_of(self, serving_mw: float, interference_mw: float) -> float:
        """Serving power over interference plus thermal noise, in dB, from a
        row's linear serving power and interference sum."""
        return linear_to_db(serving_mw / (interference_mw + self._noise_mw))

    def nearest_cell(self, position: tuple[float, float]) -> int:
        """Id of the site closest to ``position``, an ``(x, y)`` tuple of
        floats; ``min`` keeps the first minimum of the id-ordered sites, so
        an exact tie goes to the lowest id."""
        return min(self.sites, key=lambda site: math.dist(site.position, position)).id

    def generate_report(self, ue: int, row: RadioRow, serving_cell: int, timestamp: float) -> MeasurementReport:
        """Build a measurement report from a ``row``'s powers and RSSI:
        serving entry plus up to 8 neighbors, and the ambient-noise reading.

        The UE's ambient noise level first takes one bounded random-walk
        step (one σ_env draw, clamped to its mean ± 3σ_env).  Every site's
        measured RSRP is its true RSRP less the level's excursion above its
        configured mean (a noisier environment reads a weaker signal), plus
        one measurement-noise draw per site in id order; one more draw of
        the same σ makes the reading of the level.  Any non-finite
        measurement raises ValueError.  Neighbors are ranked by measured
        RSRP descending (ties by cell id) and filtered by the detection
        threshold.  All entries carry measured RSRP and the derived RSRQ,
        10*log10(N_RB) + RSRP - RSSI.
        """
        p = self.params
        bound = 3.0 * p.env_noise_sigma_db
        level = self._env_noise.get(ue, p.env_noise_mean_dbm) + float(self.rng.normal(0.0, p.env_noise_sigma_db))
        level = min(max(level, p.env_noise_mean_dbm - bound), p.env_noise_mean_dbm + bound)
        self._env_noise[ue] = level
        degradation = level - p.env_noise_mean_dbm
        # Total received wideband power plus the noise floor forms the RSSI.
        wideband = row.wideband
        rssi_dbm = linear_to_db(row.rssi_mw + self._noise_mw)

        *noise, reading_noise = self.rng.normal(0.0, p.meas_noise_sigma_db, len(wideband) + 1).tolist()
        measured = [w - self._re_scaling_db - degradation + z for w, z in zip(wideband, noise)]
        if not all(map(math.isfinite, measured)):
            raise ValueError("measured RSRP must be finite")

        def entry(cid: int) -> MeasurementEntry:
            return MeasurementEntry(cid, measured[cid], self._rsrq_offset_db + measured[cid] - rssi_dbm)

        # A stable descending sort keeps equal measurements in id order.
        ranked = sorted(range(len(measured)), key=measured.__getitem__, reverse=True)
        detected = (c for c in ranked if c != serving_cell and measured[c] >= DETECTION_THRESHOLD_DBM)
        neighbors = tuple(entry(c) for c in islice(detected, MAX_NEIGHBORS))
        return MeasurementReport(ue, timestamp, entry(serving_cell), neighbors, level + reading_noise)
