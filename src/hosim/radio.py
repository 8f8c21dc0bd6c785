"""Cell sites, propagation, and measurement-report generation.

Propagation is a log-distance path loss model anchored at a free-space
reference distance of 1 m, with block-constant log-normal shadowing per
(site, UE) pair that is redrawn every 50 m of UE travel.  Every site
shares one link budget, ``RadioParams`` (transmit power, carrier,
bandwidth, noise figure), so a site is only its position: the sites are
one (n_sites x 2) array whose row i is site i's ``(x, y)``.  RSRP
is the wideband received power scaled down to one resource element
(120 kHz subcarrier spacing).  Ambient RF noise at each UE follows a
bounded random walk, stepped once per report; it degrades measured RSRP
additively in dB, and the report carries a noisy reading of it.

Every link budget of many (UE, site) pairs is one array body,
``_link_budget``: each site's distance, wideband power and linear power,
and each UE's SINR, by one mapped ``math.log10`` pass with ``sinr_of``'s
operations.  Report ticks (``block_samples``) and execution windows
(``window_sinrs``) both take it, so a window's SINR is the one a report
tick would give at the same instant.  Only a handover's completion looks
up one site, through ``true_rsrp_of`` and ``shadowing_db``;
``_received_dbm`` is the one-site form of the link budget.  Each UE's
shadowing values are one float64 row by site id, redrawn where stale as
one standard-normal block written into the row (``refresh_shadowing``),
which takes from the shadowing stream exactly what one ``normal`` call
per site would.  The radio alone decides when a row is read
(``_shadowing``): a report tick's rows when the tick reads its first,
and every executing UE's, in id order, before a window block; at zero
sigma none is read and nothing is drawn.

A report tick steps each UE's ambient walk and gives the UE a
``RadioSample`` (every site's measured RSRP, the RSSI, the detected cells
ranked, the ambient reading, the serving cell it was taken for, the
SINR and the nearest site); ``generate_report`` builds the UE's report,
RSRQ included and neighbours strongest first, from it.  One kernel,
``block_samples``, computes the samples of every deployment, and it
computes exactly the report ticks it is given: the simulation gives it
a trajectory block's.  Their (tick, UE) pairs are the rows of one array
body, ``_array_chunk``, each row's sample taken for the serving cell it
was handed.  A row (``KernelRow``) carries its chunk's linear powers and
its index in them, so ``resplit_sinr`` can retake its SINR for another
serving cell.  Everything waits for the chunk: the call computes its
rows as they are read, at most ``ARRAY_PASS_MAX_PAIRS`` slots at a time,
a row counting its sites plus its sample's ``MAX_NEIGHBORS + 6`` fixed
fields, and each chunk refreshes its rows' shadowing, draws their channel
noise (one standard-normal block, in the order per-UE draws would take
it) and steps their ambient walks before its arithmetic.  That keeps a
large call's peak memory, its noise and samples included, near that of
one chunk.  The kernel, and ``window_sinrs`` and
``nearest_cell`` chunked alike, give what a scalar pass over each UE's
id-ordered sites gives, bit for bit:

- numpy does only IEEE add, subtract, multiply and divide, comparisons
  (and selections by them), ``maximum`` and ``argmin``, each giving what
  the scalar operation gives;
- ``math.hypot``, ``math.log10`` and ``math.pow(10.0, .)`` (which equals
  ``10.0 ** .``, both being libm's ``pow``) are mapped over the arrays,
  because numpy's own versions differ from ``math`` in the last bit on a
  few percent of inputs;
- sums over sites add one id-ordered column at a time (a running sum
  along the sites), never through ``np.sum``, whose pairwise order differs;
  the interference sum adds +0.0 at the serving column, which changes no
  sum of powers that are all >= +0.0;
- the ranking is a stable sort of the negated measurements, so equal
  measurements keep the lower cell id first, as the scalar sort does;
- the ambient walk is stepped in scalar Python, clamped as ``max`` then
  ``min`` clamp it.

``tests/test_exactness.py`` audits the source of the array code for
these rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterator, NamedTuple

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0
REFERENCE_DISTANCE_M = 1.0
SUBCARRIER_SPACING_HZ = 120e3
SUBCARRIERS_PER_RB = 12
MAX_NEIGHBORS = 8
DETECTION_THRESHOLD_DBM = -125.0
SHADOWING_DECORRELATION_M = 50.0
# Most slots one chunk of the kernel spans, a (tick, UE) row counting one
# per site and one per fixed field of its sample (up to MAX_NEIGHBORS + 1
# ranked ids and five scalars), which bounds its arrays' memory, its
# channel noise and the samples it builds whatever the deployment's size:
# the corridor's 2 sites get 256-row chunks, hex50's 50 sites 64.
ARRAY_PASS_MAX_PAIRS = 4096
# The anchor of a shadowing value never drawn: infinitely far from any
# position, so the first lookup always draws.
_NEVER_DRAWN = (math.inf, math.inf)


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def linear_to_db(value: float) -> float:
    return 10.0 * math.log10(value)


def ranged(default, lo: float, hi: float):
    """A dataclass field defaulting to ``default`` whose value must lie in
    the inclusive range [lo, hi], and be finite if it is a float (an int
    compares exactly); ``Scenario.validate`` enforces it.

    Each range is wide enough for any cellular deployment and narrow
    enough that the dB and distance arithmetic of a run stays finite and
    resolves each noise draw.
    """
    return field(default=default, metadata={"range": (lo, hi)})


def one_of(default, choices: tuple):
    """A dataclass field defaulting to ``default`` whose value must be one of ``choices``."""
    return field(default=default, metadata={"choices": choices})


@dataclass(frozen=True)
class RadioParams:
    """The link budget every site shares."""

    tx_power_dbm: float = ranged(46.0, -50.0, 100.0)
    carrier_freq_hz: float = ranged(26e9, 1e6, 1e12)
    bandwidth_hz: float = ranged(400e6, SUBCARRIERS_PER_RB * SUBCARRIER_SPACING_HZ, 1e11)  # one resource block or more
    noise_figure_db: float = ranged(5.0, 0.0, 50.0)


@dataclass(frozen=True)
class ChannelParams:
    """Propagation and noise parameters shared by every link."""

    path_loss_exponent: float = ranged(3.0, 1.0, 10.0)
    shadowing_sigma_db: float = ranged(4.0, 0.0, 30.0)
    thermal_noise_density_dbm_hz: float = ranged(-174.0, -220.0, -100.0)
    meas_noise_sigma_db: float = ranged(2.0, 0.0, 30.0)
    env_noise_mean_dbm: float = ranged(-100.0, -220.0, 100.0)
    env_noise_sigma_db: float = ranged(2.0, 0.0, 30.0)


class MeasurementEntry(NamedTuple):
    """One reported cell; the report kernel checks the values are finite."""

    cell: int
    rsrp_dbm: float
    rsrq_db: float


class _ReportFields(NamedTuple):
    ue: int
    timestamp: float
    serving: MeasurementEntry
    neighbors: tuple[MeasurementEntry, ...]
    env_noise_dbm: float


class MeasurementReport(_ReportFields):
    """Per-UE snapshot of serving and neighbor cell measurements plus the
    UE's reading of its ambient noise level; an immutable tuple that
    rejects a serving cell listed among the neighbors.  Its neighbors are
    listed strongest first, ties to the lower id, as a measurement report
    orders them (TS 38.331 §5.5.5): the constructor sorts a list given in
    another order, and ``generate_report`` builds them in it."""

    __slots__ = ()

    def __new__(cls, ue, timestamp, serving, neighbors, env_noise_dbm):
        cell = serving.cell
        for n in neighbors:
            if n.cell == cell:
                raise ValueError("serving cell must not appear in neighbor list")
        neighbors = tuple(sorted(neighbors, key=lambda n: (-n.rsrp_dbm, n.cell)))
        return tuple.__new__(cls, (ue, timestamp, serving, neighbors, env_noise_dbm))


class RadioSample(NamedTuple):
    """What one UE's report tick yields, taken for one serving cell."""

    measured: list[float]  # each site's measured RSRP in dBm, by id
    rssi_dbm: float  # every site's power plus the noise floor
    ranked: list[int]  # detected site ids, strongest first, ties to the lower id; at most MAX_NEIGHBORS + 1
    env_reading_dbm: float  # the UE's reading of its ambient noise level
    serving: int  # id of the serving site the SINR is taken for
    sinr_db: float  # the serving site's power over the others' (summed in id order) plus the noise floor
    nearest: int  # id of the closest site, a tie to the lower id


# One report-kernel row: its sample, its chunk's linear powers (rows x
# sites, by site id) and its row in them.
KernelRow = tuple[RadioSample, np.ndarray, int]

# Builds a named tuple from the tuple of its fields, as its ``_make`` does,
# without the Python-level call the generated constructor costs; a report
# tick builds several per UE.
_new_tuple = tuple.__new__


def _mapped(fn, *arrays: np.ndarray) -> np.ndarray:
    """``fn`` of the arrays' elements (equally shaped float arrays),
    computed by the Python float function itself so each value is the
    scalar path's bit for bit."""
    shape = arrays[0].shape
    flat = (memoryview(a.reshape(-1)) for a in arrays)
    return np.fromiter(map(fn, *flat), float, math.prod(shape)).reshape(shape)


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

    Takes the run's one link budget, ``radio``, and derives its
    per-run constants once: the 1 m reference path loss, the
    resource-element scaling, the thermal noise power and the RSRQ's
    10*log10(N_RB) term.  ``sites`` is an (n_sites x 2) float array whose
    row i is site i's ``(x, y)``, so a site's id is its row and every
    per-site list is indexed by it.  Owns each UE's shadowing row, a
    float64 array of its values by site id with a list of the positions
    they were drawn at, and the per-UE ambient-noise random walks, which
    only the report kernel steps.
    Confined to a single simulation instance; a run is single-threaded.
    """

    def __init__(self, sites: np.ndarray, channel: ChannelParams, radio: RadioParams, rng, shadow_rng):
        if sites.shape[1:] != (2,):
            raise ValueError(f"sites must be an (n_sites x 2) array, not of shape {sites.shape}")
        self.sites = sites
        self.params = channel
        self.rng = rng
        # Shadowing draws on their own stream so redraw timing (which can
        # shift with the step size) never perturbs measurement noise.
        self.shadow_rng = shadow_rng
        # ue -> (shadowing values, UE positions they were drawn at), by site id
        self._shadow: dict[int, tuple[np.ndarray, list[tuple[float, float]]]] = {}
        self._env_noise: dict[int, float] = {}
        # The bounds of the ambient walk: its mean less and plus 3 sigma.
        bound = 3.0 * channel.env_noise_sigma_db
        self._walk_lo = channel.env_noise_mean_dbm - bound
        self._walk_hi = channel.env_noise_mean_dbm + bound
        # Each UE's channel draws per report: the walk step, then one per
        # site and the ambient reading.
        self._noise_scale = np.array(
            [channel.env_noise_sigma_db] + [channel.meas_noise_sigma_db] * (len(self.sites) + 1)
        )
        self._tx_dbm = radio.tx_power_dbm
        self._reference_db = free_space_reference_db(radio.carrier_freq_hz)
        self._slope_db = 10.0 * channel.path_loss_exponent
        self._re_scaling_db = re_scaling_db(radio.bandwidth_hz)
        self._noise_mw = db_to_linear(
            channel.thermal_noise_density_dbm_hz + linear_to_db(radio.bandwidth_hz) + radio.noise_figure_db
        )
        self._rsrq_offset_db = linear_to_db(n_resource_blocks(radio.bandwidth_hz))

    def shadowing_db(self, cell: int, ue: int, position: tuple[float, float]) -> float:
        """Block-constant shadowing, redrawn after 50 m of UE travel from the
        ``(x, y)`` float tuple ``position`` it was drawn at."""
        values, anchors = self._shadow_row(ue)
        if not math.dist(anchors[cell], position) < SHADOWING_DECORRELATION_M:
            values[cell] = self.shadow_rng.normal(0.0, self.params.shadowing_sigma_db)
            anchors[cell] = position
        return values.item(cell)

    def _shadow_row(self, ue: int) -> tuple[np.ndarray, list[tuple[float, float]]]:
        rows = self._shadow.get(ue)
        if rows is None:
            n = len(self.sites)
            rows = self._shadow[ue] = (np.zeros(n), [_NEVER_DRAWN] * n)
        return rows

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
        sx, sy = self.sites[cell].tolist()
        return self._received_dbm(math.hypot(sx - position[0], sy - position[1]), shadowing) - self._re_scaling_db

    def refresh_shadowing(self, ue: int, position: tuple[float, float]) -> np.ndarray:
        """The UE's shadowing row, its values by site id, current at
        ``position`` (an ``(x, y)`` tuple of floats): each value drawn 50 m
        or more from ``position`` is redrawn there, in id order, exactly as
        ``shadowing_db`` would redraw it.  The row is the store's own, which
        a later refresh or lookup overwrites; a caller copies what it keeps.

        Sites drawn at the same instant share one anchor object, so
        staleness is judged once for the whole row when every site has one
        anchor, and otherwise once per run of sites with the same anchor;
        ``math.dist`` is pure, so that equals judging each site.  The stale
        sites are drawn as one standard-normal block, scaled and offset as
        numpy's ``normal`` computes ``0.0 + sigma * z``, so each value (its
        sign of zero included) and the stream's state after the block equal
        one ``normal(0.0, sigma)`` call per site.
        """
        values, anchors = self._shadow_row(ue)
        # Most rows hold one anchor for every site: judge it once.
        first = anchors[0]
        if anchors.count(first) == len(anchors):
            if math.dist(first, position) < SHADOWING_DECORRELATION_M:
                return values
            stale = range(len(anchors))
        else:
            stale, anchor, is_stale = [], None, False
            for cid, drawn_at in enumerate(anchors):
                if drawn_at is not anchor:
                    anchor = drawn_at
                    is_stale = not math.dist(anchor, position) < SHADOWING_DECORRELATION_M
                if is_stale:
                    stale.append(cid)
            if not stale:
                return values
        block = self.shadow_rng.standard_normal(len(stale))
        block *= self.params.shadowing_sigma_db
        block += 0.0
        values[stale] = block
        for cid in stale:
            anchors[cid] = position
        return values

    def sinr_of(self, serving_mw: float, interference_mw: float) -> float:
        """Serving power over interference plus thermal noise, in dB, from a
        UE's linear serving power and interference sum."""
        return linear_to_db(serving_mw / (interference_mw + self._noise_mw))

    def resplit_sinr(self, row: KernelRow, serving: int) -> float:
        """The SINR of the kernel row ``row`` for ``serving``, a serving
        cell other than the one its sample was taken for: the serving power
        and the interference sum retaken from the row's linear powers (the
        other sites summed in id order from 0.0, as the kernel sums them),
        then ``sinr_of``."""
        _, powers, r = row
        mw = powers[r].tolist()
        interference_mw = 0.0
        for cid, power in enumerate(mw):
            if cid != serving:
                interference_mw += power
        return self.sinr_of(mw[serving], interference_mw)

    def nearest_cell(self, xy: np.ndarray) -> list[int]:
        """Id of the site closest to each row of ``xy`` (an (n x 2) array of
        positions), in one pass a chunk at a time: the link budget's
        distances (``_distances``), then ``argmin``, which keeps the first
        minimum of the id-ordered sites, so an exact tie goes to the lowest
        id, as the report kernel's nearest site does."""
        return [cell for rows in self._chunks(len(xy)) for cell in self._distances(xy[rows]).argmin(axis=1).tolist()]

    def block_samples(self, ticks: np.ndarray, servings: list[int]) -> Iterator[KernelRow]:
        """The report kernel: every row of the report ticks ``ticks``,
        tick-major, each a ``KernelRow``.  ``ticks[k, i]`` is UE ``i``'s
        ``(x, y)`` at the ``k``-th tick, and each of its samples is taken
        for UE ``i`` served by ``servings[i]``, its SINR included;
        ``resplit_sinr`` retakes the SINR for another serving cell.

        At each tick the UE's ambient noise level first takes one bounded
        random-walk step (the σ_env draw, clamped to its mean ± 3σ_env).
        Every site's measured RSRP is its true RSRP less the level's
        excursion above its configured mean (a noisier environment reads a
        weaker signal), plus one measurement-noise draw per site in id
        order; the last draw makes the reading of the level.  The RSSI is
        every site's power plus the noise floor.  A non-finite measurement
        or RSSI raises ValueError.  Detected cells (measured RSRP at or
        above the threshold) are ranked by measured RSRP descending, ties
        by cell id.

        Nothing is computed until the first row is read; then each chunk
        (``_chunks``) in turn first takes its rows' shadowing
        (``_shadowing``), so with shadowing no chunk spans two ticks: a
        tick's rows are refreshed when it reads its first, after all that
        drew shadowing before it, as a one-tick call's would be.  It then
        draws its rows' channel noise, one standard-normal block scaled and
        offset as numpy's ``normal`` computes ``0.0 + scale * z``: per row
        the walk's step (σ_env), then ``n_sites + 1`` measurement draws
        (σ_meas), the last for the ambient reading; and it steps each row's
        walk in turn with the scalar clamp.  Rows come in the order each
        UE's own ``normal`` calls would take them tick by tick, and ``rng``
        feeds nothing else, so the draws equal those calls bit for bit, and
        once every row is read ``rng`` and ``_env_noise`` stand where they
        would."""
        n_ues = len(servings)
        xy, ues, servings = ticks.reshape(-1, 2), list(range(n_ues)) * len(ticks), servings * len(ticks)
        span = n_ues if self.params.shadowing_sigma_db > 0 else 0
        lo, hi, walks, mean = self._walk_lo, self._walk_hi, self._env_noise, self.params.env_noise_mean_dbm
        for rows in self._chunks(len(xy), span):
            positions, chunk_ues = xy[rows], ues[rows]
            shadowing = self._shadowing(chunk_ues, positions)
            noise = self.rng.standard_normal((len(chunk_ues), len(self._noise_scale)))
            noise *= self._noise_scale
            noise += 0.0
            # Each row's walk in turn; max() then min() clamp it.
            levels = []
            for ue, step in zip(chunk_ues, noise[:, 0].tolist()):
                level = walks.get(ue, mean) + step
                if lo > level:
                    level = lo
                if hi < level:
                    level = hi
                walks[ue] = level
                levels.append(level)
            samples, mw = self._array_chunk(positions, servings[rows], shadowing, np.array(levels), noise)
            yield from zip(samples, repeat(mw), range(len(samples)))

    def _chunks(self, n_rows: int, span: int = 0) -> Iterator[slice]:
        """Slices of ``n_rows`` rows, each spanning at most
        ``ARRAY_PASS_MAX_PAIRS`` slots (at least one row): a row's sites and
        its sample's ``MAX_NEIGHBORS + 6`` fixed fields, so the bound holds
        for the samples a report chunk builds, not only for its arrays.
        Given ``span`` (which divides ``n_rows``), none crosses a multiple
        of ``span`` rows; zero rows give no slice, whatever the span."""
        per_chunk = max(1, ARRAY_PASS_MAX_PAIRS // (len(self.sites) + MAX_NEIGHBORS + 6))
        span = span or max(1, n_rows)
        return (
            slice(start, min(start + per_chunk, first + span))
            for first in range(0, n_rows, span)
            for start in range(first, first + span, per_chunk)
        )

    def _shadowing(self, ues, xy) -> np.ndarray:
        """The shadowing of UE ``ues[r]`` at ``xy[r]`` (an (n x 2) array of
        positions) by site id, each row refreshed there in turn and copied.
        At zero sigma every value is +0.0, so none is read or drawn: a
        column of +0.0, broadcast along the sites."""
        if not self.params.shadowing_sigma_db > 0:
            return np.zeros((len(ues), 1))
        shadowing = np.empty((len(ues), len(self.sites)))
        for r, (ue, position) in enumerate(zip(ues, map(tuple, xy.tolist()))):
            shadowing[r] = self.refresh_shadowing(ue, position)
        return shadowing

    def window_sinrs(self, ues, xy, live, servings) -> list[float]:
        """The live execution windows' SINRs.  Every UE ``ues[k]`` (ids
        ascending) has its shadowing refreshed first, at ``xy[k]`` (an (n x
        2) array of positions).  Window ``j``, UE ``ues[live[j]]``'s served
        by ``servings[j]``, takes ``_link_budget``'s SINR a chunk at a time,
        the report kernel's at the same instant, bit for bit."""
        shadowing, xy = self._shadowing(ues, xy)[live], xy[live]
        sinrs = []
        for rows in self._chunks(len(live)):
            *_, sinr_db = self._link_budget(xy[rows], servings[rows], shadowing[rows])
            sinrs += sinr_db.tolist()
        return sinrs

    def _distances(self, xy) -> np.ndarray:
        """Each site's distance from each row of ``xy`` (an (n x 2) array of
        positions), (rows x sites), as ``math.hypot`` gives it."""
        sx, sy = self.sites.T
        return _mapped(math.hypot, sx - xy[:, :1], sy - xy[:, 1:])

    def _link_budget(self, xy, servings, shadowing) -> tuple[np.ndarray, ...]:
        """The link budget of the rows of ``xy`` (an (n x 2) array of
        positions), row ``r`` served by ``servings[r]`` with the shadowing
        row ``shadowing[r]`` (by site id, or one +0.0 for every site): each
        site's distance, wideband power in dBm and linear power, and each
        row's SINR.  Every operation is the scalar pass's in its order (see
        the module docstring)."""
        distance = self._distances(xy)
        # _received_dbm, with its clamp to the reference distance.
        log_distance = _mapped(math.log10, np.maximum(distance, REFERENCE_DISTANCE_M))
        wideband = self._tx_dbm - (self._reference_db + self._slope_db * log_distance) - shadowing
        # 10.0 ** (power / 10.0), as _mapped maps it, with the base repeated.
        exponent = wideband / 10.0
        mw = np.fromiter(map(math.pow, repeat(10.0), memoryview(exponent.reshape(-1))), float, exponent.size)
        mw = mw.reshape(exponent.shape)
        rows = np.arange(len(xy))
        serving_mw = mw[rows, servings]
        others = mw.copy()
        others[rows, servings] = 0.0
        # A running sum along the id-ordered sites adds one column at a
        # time, left to right; the first column equals 0.0 plus itself, as
        # every power is >= +0.0.
        interference_mw = np.add.accumulate(others, axis=1)[:, -1]
        # sinr_of's operations, its log10 mapped.
        sinr_db = 10.0 * _mapped(math.log10, serving_mw / (interference_mw + self._noise_mw))
        return distance, wideband, mw, sinr_db

    def _array_chunk(self, xy, servings, shadowing, level, noise) -> tuple[list[RadioSample], np.ndarray]:
        """The samples of the rows of ``xy`` (an (n x 2) array of positions),
        row ``r`` served by ``servings[r]`` with the shadowing row
        ``shadowing[r]`` (by site id), its ambient walk already stepped to
        ``level[r]`` and its draws ``noise[r]``; with the rows' linear powers
        by site id."""
        distance, wideband, mw, sinr_db = self._link_budget(xy, servings, shadowing)
        nearest = distance.argmin(axis=1)
        # Summed along the sites as the interference is.
        rssi_mw = np.add.accumulate(mw, axis=1)[:, -1]
        rssi_dbm = 10.0 * _mapped(math.log10, rssi_mw + self._noise_mw)
        measured = wideband - self._re_scaling_db - (level - self.params.env_noise_mean_dbm)[:, None] + noise[:, 1:-1]
        if not (np.isfinite(measured).all() and np.isfinite(rssi_dbm).all()):
            raise ValueError("measured RSRP and RSSI must be finite")
        # Descending order puts every detected cell before every other one.
        order = np.argsort(-measured, axis=1, kind="stable")[:, : MAX_NEIGHBORS + 1].tolist()
        detected = np.count_nonzero(measured >= DETECTION_THRESHOLD_DBM, axis=1).tolist()
        ranked = [cells[:count] for cells, count in zip(order, detected)]
        fields = zip(
            measured.tolist(),
            rssi_dbm.tolist(),
            ranked,
            (level + noise[:, -1]).tolist(),
            servings,
            sinr_db.tolist(),
            nearest.tolist(),
        )
        return list(map(_new_tuple, repeat(RadioSample), fields)), mw

    def generate_report(
        self, ue: int, sample: RadioSample, serving_cell: int, timestamp: float
    ) -> MeasurementReport:
        """Build UE ``ue``'s measurement report from its tick's ``sample``:
        the serving entry, up to 8 neighbors (the strongest detected cells
        other than ``serving_cell``), and the ambient-noise reading.  Every
        entry carries the cell's measured RSRP and the derived RSRQ,
        10*log10(N_RB) + RSRP - RSSI."""
        measured, rssi_dbm, ranked, reading, _, _, _ = sample
        offset = self._rsrq_offset_db
        neighbors = []
        for cid in ranked:
            if cid != serving_cell:
                value = measured[cid]
                neighbors.append(_new_tuple(MeasurementEntry, (cid, value, offset + value - rssi_dbm)))
                if len(neighbors) == MAX_NEIGHBORS:
                    break
        value = measured[serving_cell]
        serving = _new_tuple(MeasurementEntry, (serving_cell, value, offset + value - rssi_dbm))
        # The loop skipped the serving cell, so the report skips the check.
        return _new_tuple(MeasurementReport, (ue, timestamp, serving, tuple(neighbors), reading))
