"""Propagation, measurement, and report-generation tests."""

import dataclasses
import math

import numpy as np
import pytest

from hosim import radio
from hosim.radio import (
    DETECTION_THRESHOLD_DBM,
    MAX_NEIGHBORS,
    ChannelParams,
    MeasurementEntry,
    MeasurementReport,
    RadioEnvironment,
    RadioParams,
    free_space_reference_db,
    n_resource_blocks,
    re_scaling_db,
)
from hosim.policies import FixedA3Policy
from hosim.sim import ConfigError, Scenario, Simulation, build_sites, place_ues
from corridor import corridor_scenario
from scalar_oracle import channel_noise, oracle_nearest, oracle_row, oracle_tick, shadow_bits

PARAMS = ChannelParams(shadowing_sigma_db=0.0, meas_noise_sigma_db=0.0, env_noise_sigma_db=0.0)
# Noise-free draws on a shadowed channel, whose report ticks read each
# UE's shadowing row (one pinned by ``pin_shadowing`` included).
SHADOWED = dataclasses.replace(PARAMS, shadowing_sigma_db=6.0)
FREQ = 26e9
BW = 400e6
RB_HZ = 12 * 120e3
# Thermal noise over the bandwidth plus the 5 dB noise figure.
NOISE_DBM = -174.0 + 10 * math.log10(BW) + 5.0


def chunk_slots(rows, n_sites):
    """The ``ARRAY_PASS_MAX_PAIRS`` whose chunks over ``n_sites`` sites hold
    ``rows`` rows: a row spans one slot per site and one per fixed field of
    its sample, ``MAX_NEIGHBORS + 6`` of them."""
    return rows * (n_sites + MAX_NEIGHBORS + 6)


def make_env(sites, params=PARAMS, seed=0, tx=46.0, bw=BW):
    """An environment whose sites, ``(x, y)`` positions in id order, share
    one link budget (5 dB noise figure); measurement noise draws from
    ``default_rng(seed)``, shadowing from its own stream."""
    radio = RadioParams(tx_power_dbm=tx, carrier_freq_hz=FREQ, bandwidth_hz=bw, noise_figure_db=5.0)
    sites = np.array(sites, float).reshape(-1, 2)
    return RadioEnvironment(sites, params, radio, np.random.default_rng(seed), np.random.default_rng(seed + 1))


def report_of(env, position, serving, timestamp):
    """UE 0's report at ``position``, from the report kernel's one row of a
    one-tick trajectory."""
    ((sample, *_),) = env.block_samples(np.array([[position]]), [serving])
    return env.generate_report(0, sample, serving, timestamp)


class NanAt:
    """An rng whose draw ``index``, counted from its first, is a NaN, be it
    taken in a standard-normal block or by a ``normal`` call."""

    def __init__(self, rng, index):
        self.rng, self.index, self.taken = rng, index, 0

    def _drawn(self, block):
        block = np.array(block, dtype=float)
        flat = block.reshape(-1)
        if 0 <= self.index - self.taken < flat.size:
            flat[self.index - self.taken] = math.nan
        self.taken += flat.size
        return block

    def standard_normal(self, shape):
        return self._drawn(self.rng.standard_normal(shape))

    def normal(self, loc, scale, size=None):
        return self._drawn(self.rng.normal(loc, scale, size))


def pin_shadowing(env, ue, position, values):
    """Give UE ``ue`` the shadowing ``values`` (by site id), drawn at
    ``position``, so a row there reads them without a redraw."""
    env._shadow[ue] = (np.array(values, float), [position] * len(values))


def shadowing_for(env, cell, position, target, below=False):
    """A shadowing value that puts the noise-free measured RSRP of ``cell``
    at ``position`` exactly on ``target`` dBm, or one step below it."""
    sx, sy = env.sites[cell].tolist()
    distance = math.hypot(sx - position[0], sy - position[1])
    measured = lambda shadowing: env._received_dbm(distance, shadowing) - env._re_scaling_db
    shadowing = env._received_dbm(distance, 0.0) - env._re_scaling_db - target
    for _ in range(1000):
        value = measured(shadowing)
        if (value < target) if below else (value == target):
            return shadowing
        shadowing = math.nextafter(shadowing, math.inf if value >= target else -math.inf)
    raise AssertionError(f"no shadowing puts cell {cell} on {target} dBm")


def budget_row(env, ue, position, serving):
    """UE ``ue``'s link budget at ``position`` (an ``(x, y)`` tuple) while
    served by ``serving``, from the radio's array helper with the shadowing
    ``refresh_shadowing`` gives there: the wideband powers by site id, the
    serving power, the interference sum and the nearest site."""
    shadowing = np.array([env.refresh_shadowing(ue, position)])
    distance, wideband, _, serving_mw, interference_mw = env._link_budget(np.array([position]), [serving], shadowing)
    return wideband[0].tolist(), serving_mw.item(), interference_mw.item(), distance[0].argmin().item()


def loss_at(distance_m):
    """Path loss to a UE ``distance_m`` from a 46 dBm site, with zero shadowing."""
    wideband, *_ = budget_row(make_env([(0.0, 0.0)]), 0, (distance_m, 0.0), 0)
    return 46.0 - wideband[0]


class TestPathLoss:
    def test_reference_distance_identity(self):
        assert loss_at(1.0) == pytest.approx(free_space_reference_db(FREQ))
        assert free_space_reference_db(FREQ) == pytest.approx(20 * math.log10(4 * math.pi * FREQ / 299_792_458.0))

    def test_ten_x_reference_adds_30db_at_exponent_3(self):
        assert loss_at(10.0) == pytest.approx(loss_at(1.0) + 30.0)

    def test_hundred_x_reference_adds_60db(self):
        assert loss_at(100.0) == pytest.approx(loss_at(1.0) + 60.0)

    def test_below_reference_clamps(self):
        assert loss_at(0.01) == loss_at(1.0)
        assert loss_at(0.0) == loss_at(1.0)

    def test_monotone_in_distance(self):
        rng = np.random.default_rng(7)
        distances = np.sort(rng.uniform(0.5, 5000.0, size=200))
        losses = [loss_at(d) for d in distances]
        assert all(b >= a for a, b in zip(losses, losses[1:]))


class TestTrueRsrp:
    def test_reference_distance_value(self):
        expected = 46.0 - free_space_reference_db(FREQ) - 10 * math.log10(12 * 277)
        assert make_env([(0.0, 0.0)]).true_rsrp_of(0, 0, (1.0, 0.0)) == pytest.approx(expected)

    def test_tx_power_shift_is_linear_in_db(self):
        lo = make_env([(0.0, 0.0)], tx=43.0).true_rsrp_of(0, 0, (50.0, 0.0))
        hi = make_env([(0.0, 0.0)], tx=46.0).true_rsrp_of(0, 0, (50.0, 0.0))
        assert hi - lo == pytest.approx(3.0)

    def test_shadowing_subtracts(self):
        shadowed_env = make_env([(0.0, 0.0)], params=ChannelParams(shadowing_sigma_db=6.0), seed=4)
        clear = make_env([(0.0, 0.0)]).true_rsrp_of(0, 0, (50.0, 0.0))
        shadowed = shadowed_env.true_rsrp_of(0, 0, (50.0, 0.0))
        shadowing = shadowed_env.shadowing_db(0, 0, (50.0, 0.0))
        assert shadowing != 0.0
        assert clear - shadowed == pytest.approx(shadowing)

    def test_strictly_decreasing_in_distance(self):
        env = make_env([(0.0, 0.0)])
        values = [env.true_rsrp_of(0, 0, (d, 0.0)) for d in (2, 5, 20, 90, 400)]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestMeasureRsrp:
    """Measured RSRP, read from the serving entry of a one-site report."""

    POSITION = (30.0, 0.0)

    def measured(self, env, n=1):
        """The serving RSRP of ``n`` report ticks at POSITION, from one
        kernel call."""
        rows = env.block_samples(np.broadcast_to(self.POSITION, (n, 1, 2)), [0])
        return np.array([env.generate_report(0, sample, 0, 0.0).serving.rsrp_dbm for sample, *_ in rows])

    def test_noiseless_identity(self):
        env = make_env([(0.0, 0.0)])
        assert self.measured(env)[0] == env.true_rsrp_of(0, 0, self.POSITION)

    def test_env_noise_excursion_degrades(self):
        # The walk steps before the report reads it: from +4 dB, one 2 dB
        # step (drawn as the twin draws it) sets the degradation.
        params = dataclasses.replace(PARAMS, env_noise_sigma_db=2.0)
        env, twin = make_env([(0.0, 0.0)], params, seed=8), np.random.default_rng(8)
        env._env_noise[0] = params.env_noise_mean_dbm + 4.0
        excursion = min(max(4.0 + twin.normal(0.0, 2.0), -6.0), 6.0)
        assert excursion > 0.0
        report = report_of(env, self.POSITION, 0, 0.0)
        assert report.serving.rsrp_dbm == pytest.approx(env.true_rsrp_of(0, 0, self.POSITION) - excursion)
        assert report.env_noise_dbm == pytest.approx(params.env_noise_mean_dbm + excursion)

    def test_zero_mean_noise(self):
        env = make_env([(0.0, 0.0)], dataclasses.replace(PARAMS, meas_noise_sigma_db=2.0), seed=123)
        draws = self.measured(env, 100_000) - env.true_rsrp_of(0, 0, self.POSITION)
        assert abs(draws.mean()) < 0.05

    def test_noise_stdev_matches_sigma(self):
        env = make_env([(0.0, 0.0)], dataclasses.replace(PARAMS, meas_noise_sigma_db=2.0), seed=42)
        draws = self.measured(env, 100_000)
        assert abs(draws.std() - 2.0) / 2.0 < 0.02


def rsrq_offsets(bandwidth_hz):
    """RSRQ minus (RSRP - RSSI) for every entry of a two-site report, with
    the RSSI summed independently from the wideband powers and the noise."""
    env = make_env([(0.0, 0.0), (100.0, 0.0)], bw=bandwidth_hz)
    wideband, *_ = budget_row(env, 0, (30.0, 0.0), 0)
    noise_dbm = -174.0 + 10 * math.log10(bandwidth_hz) + 5.0
    rssi_dbm = 10 * math.log10(sum(10 ** (p / 10) for p in wideband) + 10 ** (noise_dbm / 10))
    report = report_of(env, (30.0, 0.0), 0, 0.0)
    assert len(report.neighbors) == 1
    return [e.rsrq_db - (e.rsrp_dbm - rssi_dbm) for e in (report.serving, *report.neighbors)]


class TestRsrq:
    def test_identity_zero(self):
        assert rsrq_offsets(RB_HZ) == pytest.approx([0.0, 0.0], abs=1e-9)

    def test_hundred_blocks_twenty_db(self):
        assert rsrq_offsets(100 * RB_HZ) == pytest.approx([20.0, 20.0], abs=1e-9)

    def test_fifty_blocks(self):
        expected = 10 * math.log10(50)
        assert rsrq_offsets(50 * RB_HZ) == pytest.approx([expected, expected], abs=1e-9)

    def test_rejects_zero_blocks(self):
        # The scenario gate, not each RSRQ, guarantees at least one block.
        Scenario(radio=RadioParams(bandwidth_hz=RB_HZ)).validate()
        with pytest.raises(ConfigError) as err:
            Scenario(radio=RadioParams(bandwidth_hz=RB_HZ * (1 - 1e-9))).validate()
        assert err.value.field_name == "radio.bandwidth_hz"


def sinr_at(sites, position, serving=0, tx=46.0):
    """SINR of UE 0's execution window at ``position`` served by
    ``serving``, with zero shadowing."""
    env = make_env(sites, tx=tx)
    (powers,) = env.window_powers(np.array([position]), [serving], np.array([env.refresh_shadowing(0, position)]))
    return env.sinr_of(*powers)


class TestSinr:
    def test_noise_equal_to_signal_gives_zero(self):
        # Place the UE so the received power equals the noise power.
        distance = 10 ** ((46.0 - NOISE_DBM - free_space_reference_db(FREQ)) / 30.0)
        value = sinr_at([(0.0, 0.0)], (distance, 0.0))
        assert value == pytest.approx(0.0, abs=1e-6)

    def test_single_equal_interferer(self):
        # Enough transmit power that thermal noise is negligible.
        value = sinr_at([(0.0, 0.0), (200.0, 0.0)], (100.0, 0.0), tx=140.0)
        assert value == pytest.approx(0.0, abs=1e-3)

    def test_two_equal_interferers(self):
        sites = [(0.0, 100.0), (-100.0, 0.0), (100.0, 0.0)]
        value = sinr_at(sites, (0.0, 0.0), tx=140.0)
        assert value == pytest.approx(-10 * math.log10(2), abs=1e-3)

    def test_interference_limited_power_shift_invariance(self):
        sites = [(0.0, 0.0), (200.0, 0.0)]
        baseline = sinr_at(sites, (70.0, 30.0), tx=140.0)
        assert sinr_at(sites, (70.0, 30.0), tx=147.0) == pytest.approx(baseline, abs=1e-3)


class TestRadioRow:
    """A UE's row of the link budget, which report ticks and execution
    windows take, must equal the one-element ``true_rsrp_of``/``shadowing_db``
    path bit for bit."""

    # Site 0 and site 3 are both 50 m from (0, 50), an exact tie.
    SITES = [(0.0, 0.0), (100.0, 0.0), (-100.0, 0.0),
             (0.0, 100.0), (60.0, 70.0)]

    def twins(self):
        """Two identically seeded environments with shadowing and noise."""
        params = ChannelParams(shadowing_sigma_db=6.0, meas_noise_sigma_db=2.0)
        return make_env(self.SITES, params, seed=5), make_env(self.SITES, params, seed=5)

    def assert_row_matches(self, row_env, ref_env, ue, position, serving):
        """The helper's row at ``position``, checked site by site; returns
        its nearest site."""
        wideband, serving_mw, interference_mw, nearest = budget_row(row_env, ue, position, serving)
        assert [w - re_scaling_db(BW) for w in wideband] == [
            ref_env.true_rsrp_of(c, ue, position) for c in range(len(self.SITES))
        ]
        interference = 0.0
        for c, w in enumerate(wideband):
            if c != serving:
                interference += 10 ** (w / 10)
        assert interference_mw == interference
        assert serving_mw == 10 ** (wideband[serving] / 10)
        assert nearest == oracle_nearest(ref_env, position) == row_env.nearest_cell(np.array([position]))[0]
        return nearest

    # Positions within 1 m of a site (the distance clamps to 1 m), on a
    # site, at an exact tie, and in the open.
    @pytest.mark.parametrize("position", [(0.3, 0.4), (100.0, 0.0), (-99.5, 0.5), (0.0, 50.0), (37.0, -12.5)])
    def test_row_equals_one_element_path(self, position):
        row_env, ref_env = self.twins()
        for ue, serving in ((0, 0), (1, 3), (2, 4)):
            self.assert_row_matches(row_env, ref_env, ue, position, serving)
        assert row_env.shadow_rng.normal() == ref_env.shadow_rng.normal()

    def test_exact_tie_goes_to_lower_id(self):
        row_env, ref_env = self.twins()
        assert self.assert_row_matches(row_env, ref_env, 0, (0.0, 50.0), 1) == 0

    @pytest.mark.parametrize("step, redrawn", [(-1, False), (0, True), (1, True)], ids=["50m-ulp", "50m", "50m+ulp"])
    def test_shadowing_redraw_threshold(self, step, redrawn):
        # The second position is 50 m along x from the first, or one ulp
        # either side of it; at 50 m or more every site's shadowing redraws.
        row_env, ref_env = self.twins()
        first = (10.0, 20.0)
        x = 60.0 if step == 0 else math.nextafter(60.0, step * math.inf)
        second = (x, 20.0)
        assert (math.dist(first, second) >= 50.0) == redrawn
        self.assert_row_matches(row_env, ref_env, 7, first, 2)
        before = list(row_env._shadow[7][1])  # the positions each site was drawn at
        self.assert_row_matches(row_env, ref_env, 7, second, 2)
        after = list(row_env._shadow[7][1])
        assert [a is not b for a, b in zip(before, after)] == [redrawn] * len(self.SITES)
        assert row_env.shadow_rng.normal() == ref_env.shadow_rng.normal()


class TestNearestCell:
    """Construction's one pass over every UE's nearest site against the
    scalar ``math.dist`` search."""

    @pytest.mark.parametrize("max_pairs, chunks", [(10**9, [300]), (chunk_slots(7, 19) + 1, [7] * 42 + [6]), (1, [1] * 300)])
    def test_chunked_pass_equals_the_scalar_search(self, monkeypatch, max_pairs, chunks):
        env = make_env(build_sites(Scenario(n_sites=19)))
        (x1, y1), (x2, y2) = env.sites[1:3].tolist()
        positions = np.concatenate([
            [(0.0, 0.0), (x1 / 2.0, y1 / 2.0), ((x1 + x2) / 2.0, (y1 + y2) / 2.0), (x1, y1), (x1 + 0.3, y1)],
            np.random.default_rng(3).uniform(-900.0, 900.0, (295, 2)),
        ])
        monkeypatch.setattr(radio, "ARRAY_PASS_MAX_PAIRS", max_pairs)
        seen, distances = [], env._distances

        def counted(xy):
            seen.append(len(xy))
            return distances(xy)

        monkeypatch.setattr(env, "_distances", counted)
        nearest = env.nearest_cell(positions)
        assert nearest == [oracle_nearest(env, p) for p in map(tuple, positions.tolist())]
        assert seen == chunks
        # On site 0, which the other sites surround in pairs at equal
        # distances, and exactly between two sites: ties to the lower id.
        assert nearest[:4] == [0, 0, 1, 1]

    def test_no_rows(self):
        env = make_env(build_sites(Scenario(n_sites=7)))
        assert env.nearest_cell(np.empty((0, 2))) == []


class TestMeasurementTypes:
    def test_serving_must_not_be_neighbor(self):
        entry = MeasurementEntry(0, -80.0, -11.0)
        with pytest.raises(ValueError):
            MeasurementReport(1, 0.0, entry, (MeasurementEntry(0, -82.0, -12.0),), -100.0)

    # After other neighbours: the check scans the whole list.
    @pytest.mark.parametrize("at", [1, 2])
    def test_serving_listed_among_other_neighbors_raises(self, at):
        neighbors = [MeasurementEntry(cell, -85.0 - cell, -13.0) for cell in (1, 2)]
        neighbors.insert(at, MeasurementEntry(3, -84.0, -12.0))
        with pytest.raises(ValueError, match="serving cell must not appear in neighbor list"):
            MeasurementReport(0, 0.04, MeasurementEntry(3, -90.0, -14.0), tuple(neighbors), -100.0)
        MeasurementReport(0, 0.04, MeasurementEntry(4, -90.0, -14.0), tuple(neighbors), -100.0)

    def test_generated_reports_pass_the_check(self):
        # generate_report builds its reports without the constructor's
        # check: each must still pass it, whatever cell serves the UE.
        scenario = Scenario(n_sites=7, n_ues_per_cell=2, channel=ChannelParams(meas_noise_sigma_db=6.0))
        env = scenario_env(scenario)
        positions = np.random.default_rng(2).uniform(-300.0, 300.0, (14, 2))
        skipped = 0
        for tick in range(7):
            servings = [(ue + tick) % 7 for ue in range(14)]
            for ue, (sample, *_) in enumerate(env.block_samples(positions[None], servings)):
                report = env.generate_report(ue, sample, servings[ue], 0.04 * tick)
                assert type(report) is MeasurementReport
                assert MeasurementReport(*report) == report
                skipped += servings[ue] in sample.ranked and bool(report.neighbors)
        assert skipped > 20  # reports whose ranking listed the serving cell among others

    def test_constructor_lists_neighbors_strongest_first(self):
        # Strongest first, ties to the lower id, whatever order they come in.
        given = [(4, -90.0), (2, -85.0), (7, -85.0), (1, -90.0), (3, -80.0), (5, -0.0), (6, 0.0)]
        neighbors = tuple(MeasurementEntry(cell, rsrp, -13.0) for cell, rsrp in given)
        report = MeasurementReport(0, 0.0, MeasurementEntry(0, -88.0, -12.0), neighbors, -100.0)
        assert [n.cell for n in report.neighbors] == [5, 6, 3, 2, 7, 1, 4]
        assert sorted(report.neighbors) == sorted(neighbors)
        assert type(report.neighbors) is tuple

    def test_report_is_an_immutable_tuple(self):
        # Plain tuples: a report compares and unpacks by value.
        entry = MeasurementEntry(0, -80.0, -11.0)
        report = MeasurementReport(1, 0.0, entry, (), -100.0)
        assert entry == (0, -80.0, -11.0)
        assert tuple(report) == (1, 0.0, entry, (), -100.0)
        with pytest.raises(AttributeError):
            report.ue = 2


class TestGenerateReport:
    def test_single_cell_empty_neighbors(self):
        env = make_env([(0.0, 0.0)])
        report = report_of(env, (30.0, 0.0), 0, 0.0)
        assert report.neighbors == ()
        assert report.serving.cell == 0

    def test_equidistant_tie_order_by_cell_id(self):
        sites = [(0.0, 0.0), (100.0, 0.0), (-100.0, 0.0)]
        env = make_env(sites)
        report = report_of(env, (0.0, 0.0), 0, 0.0)
        assert [n.cell for n in report.neighbors] == [1, 2]
        assert report.neighbors[0].rsrp_dbm == report.neighbors[1].rsrp_dbm

    def test_kernel_reports_list_neighbors_strongest_first(self):
        # Random hex19 rows with noise, each UE served by a random cell:
        # every report's neighbours are the detected cells other than the
        # serving one, strongest first, ties to the lower id, and the
        # constructor's sort leaves them as they are.
        scenario = Scenario(n_sites=19, n_ues_per_cell=3, channel=ChannelParams(meas_noise_sigma_db=6.0))
        env = scenario_env(scenario)
        rng = np.random.default_rng(12)
        n_ues = 57
        listed = 0
        for tick in range(4):
            positions = rng.uniform(-500.0, 500.0, (1, n_ues, 2))
            servings = rng.integers(0, 19, n_ues).tolist()
            for ue, (sample, *_) in enumerate(env.block_samples(positions, servings)):
                report = env.generate_report(ue, sample, servings[ue], 0.04 * tick)
                cells = [n.cell for n in report.neighbors]
                detected = [c for c in range(19) if c != servings[ue] and sample.measured[c] >= DETECTION_THRESHOLD_DBM]
                assert cells == sorted(detected, key=lambda c: (-sample.measured[c], c))[:MAX_NEIGHBORS]
                assert MeasurementReport(*report) == report
                listed += len(cells) > 1
        assert listed > 100

    def test_zero_noise_corridor_tie_lists_the_lower_id_first(self):
        # The middle of three corridor sites serves a UE level with it, so
        # the sites either side measure exactly equal.
        scenario = corridor_scenario(n_sites=3, channel=PARAMS)
        env = scenario_env(scenario)
        x1 = env.sites[1, 0].item()
        report = report_of(env, (x1, 10.0), 1, 0.0)
        assert [n.cell for n in report.neighbors] == [0, 2]
        assert report.neighbors[0].rsrp_dbm == report.neighbors[1].rsrp_dbm
        assert FixedA3Policy(256, 3).decide(report, {}, 0.0).target == 0

    def test_neighbor_order_tracks_distance(self):
        sites = [
            (0.0, 0.0),
            (40.0, 0.0),
            (80.0, 0.0),
            (160.0, 0.0),
        ]
        env = make_env(sites)
        report = report_of(env, (0.0, 0.0), 0, 0.0)
        assert [n.cell for n in report.neighbors] == [1, 2, 3]

    def test_zero_noise_reports_are_pure_geometry(self):
        sites = [(0.0, 0.0), (120.0, 0.0)]
        first_env, second_env = make_env(sites, seed=1), make_env(sites, seed=99)
        first = report_of(first_env, (30.0, 10.0), 0, 0.0)
        second = report_of(second_env, (30.0, 10.0), 0, 0.0)
        assert first == second

    def test_neighbor_list_truncated(self):
        sites = [(25.0 * i, 0.0) for i in range(12)]
        env = make_env(sites)
        report = report_of(env, (0.0, 0.0), 0, 0.0)
        assert len(report.neighbors) == MAX_NEIGHBORS

    def test_detection_threshold_filters_far_cells(self):
        # Distance at which the true RSRP sits exactly on the threshold.
        edge = 10 ** ((46.0 - re_scaling_db(BW) - DETECTION_THRESHOLD_DBM - free_space_reference_db(FREQ)) / 30.0)
        sites = [(0.0, 0.0), (edge * 0.9, 0.0), (edge * 1.1, 0.0)]
        env = make_env(sites)
        report = report_of(env, (0.0, 0.0), 0, 0.0)
        assert [n.cell for n in report.neighbors] == [1]

    def test_threshold_itself_is_detected(self):
        # Noise-free draws: a site's measurement is its wideband power less
        # the RE scaling.  Shadowing puts one exactly on the threshold and
        # one just under.
        env = make_env([(40.0 * i, 0.0) for i in range(3)], SHADOWED)
        position = (0.0, 0.0)
        at = shadowing_for(env, 1, position, DETECTION_THRESHOLD_DBM)
        under = shadowing_for(env, 2, position, DETECTION_THRESHOLD_DBM, below=True)
        pin_shadowing(env, 0, position, [0.0, at, under])
        report = report_of(env, position, 0, 0.0)
        assert [(n.cell, n.rsrp_dbm) for n in report.neighbors] == [(1, DETECTION_THRESHOLD_DBM)]

    def test_rsrq_values_negative_under_load(self):
        sites = [(0.0, 0.0), (100.0, 0.0)]
        env = make_env(sites)
        report = report_of(env, (50.0, 0.0), 0, 0.0)
        assert report.serving.rsrq_db < 0
        assert all(n.rsrq_db < 0 for n in report.neighbors)

    # Each draw-order test makes three kernel calls, as ``Simulation``
    # makes them: two of ``block_ticks`` report ticks, then one of a single
    # tick (a trajectory block clipped at the run's end).  ``block_ticks``
    # is many, or one as in hex50.
    @staticmethod
    def blocks(env, ticks, servings, block_ticks):
        """Each call's rows, with the state of ``env.rng`` right after it."""
        for start, end in ((0, block_ticks), (block_ticks, 2 * block_ticks), (2 * block_ticks, 2 * block_ticks + 1)):
            rows = env.block_samples(ticks[start:end], servings)
            yield rows, env.rng.bit_generator.state

    def test_one_noise_draw_per_site_in_id_order(self):
        # Twelve sites: the serving cell and eight neighbours are reported,
        # three are not, yet every site takes its draw.
        sites = [(40.0 * i, 15.0 * (i % 3)) for i in range(12)]
        for n_ues, block_ticks in ((1, 73), (80, 1)):
            env = make_env(sites, dataclasses.replace(PARAMS, meas_noise_sigma_db=2.0), seed=11)
            twin = np.random.default_rng(11)
            position = (170.0, 5.0)
            wideband, *_ = budget_row(env, 0, position, 4)
            ticks = np.broadcast_to(position, (3 * block_ticks, n_ues, 2))
            for rows, state in self.blocks(env, ticks, [4] * n_ues, block_ticks):
                for row, (sample, *_) in enumerate(rows):
                    report = env.generate_report(row % n_ues, sample, 4, 0.0)
                    twin.normal(0.0, 0.0)  # the ambient-noise walk's step
                    expected = [p - re_scaling_db(BW) - 0.0 + twin.normal(0.0, 2.0) for p in wideband]
                    twin.normal(0.0, 2.0)  # the ambient-noise reading
                    assert len(report.neighbors) == MAX_NEIGHBORS
                    for entry in (report.serving, *report.neighbors):
                        assert entry.rsrp_dbm == expected[entry.cell]
                    ranked = sorted((c for c in range(12) if c != 4), key=lambda c: (-expected[c], c))
                    assert [n.cell for n in report.neighbors] == ranked[:MAX_NEIGHBORS]
                # Right after each call the stream stands where the per-UE
                # calls of its ticks leave it, and reading the rows draws none.
                assert state == twin.bit_generator.state == env.rng.bit_generator.state

    def test_draw_order_is_walk_then_sites_then_reading(self):
        # One report takes n_sites + 2 channel draws: the walk step, each
        # site's measurement noise in id order, then the ambient reading.
        sites = [(60.0 * i, 0.0) for i in range(3)]
        params = dataclasses.replace(PARAMS, meas_noise_sigma_db=2.0, env_noise_sigma_db=1.5)
        mean = params.env_noise_mean_dbm
        for n_ues, block_ticks in ((1, 204), (250, 1)):
            env, twin = make_env(sites, params, seed=21), np.random.default_rng(21)
            position = (50.0, 0.0)
            wideband, *_ = budget_row(env, 0, position, 0)
            levels = [mean] * n_ues
            ticks = np.broadcast_to(position, (3 * block_ticks, n_ues, 2))
            for rows, state in self.blocks(env, ticks, [0] * n_ues, block_ticks):
                for row, (sample, *_) in enumerate(rows):
                    ue = row % n_ues
                    report = env.generate_report(ue, sample, 0, 0.0)
                    level = levels[ue] = min(max(levels[ue] + twin.normal(0.0, 1.5), mean - 4.5), mean + 4.5)
                    expected = [p - re_scaling_db(BW) - (level - mean) + twin.normal(0.0, 2.0) for p in wideband]
                    assert {e.cell: e.rsrp_dbm for e in (report.serving, *report.neighbors)} == dict(enumerate(expected))
                    assert report.env_noise_dbm == level + twin.normal(0.0, 2.0)
                assert state == twin.bit_generator.state == env.rng.bit_generator.state

    def test_nan_measurement_at_one_site_raises(self):
        sites = [(40.0 * i, 0.0) for i in range(5)]
        env = make_env(sites)
        env.rng = NanAt(env.rng, 1 + 3)  # site 3's measurement noise at the first tick
        with pytest.raises(ValueError):
            report_of(env, (0.0, 0.0), 0, 0.0)

    def test_non_finite_power_at_unreported_site_raises(self):
        sites = [(40.0 * i, 0.0) for i in range(12)]
        env = make_env(sites, SHADOWED)
        position, far = (0.0, 0.0), 11
        budget_row(env, 0, position, 0)
        env._shadow[0][0][far] = math.inf
        wideband, *_ = budget_row(env, 0, position, 0)
        assert wideband[far] == -math.inf
        with pytest.raises(ValueError):
            report_of(env, position, 0, 0.0)


class TestEnvironmentState:
    def test_env_noise_walk_is_bounded(self):
        # Without measurement noise each report reads the walk's level exactly.
        params = dataclasses.replace(PARAMS, env_noise_sigma_db=2.0)
        env = make_env([(0.0, 0.0)], params, seed=3)
        values = [report_of(env, (30.0, 0.0), 0, 0.0).env_noise_dbm for _ in range(2000)]
        bound = 3.0 * params.env_noise_sigma_db
        assert all(abs(v - params.env_noise_mean_dbm) <= bound + 1e-9 for v in values)
        assert max(abs(v - params.env_noise_mean_dbm) for v in values) == pytest.approx(bound)

    def test_shadowing_block_constant_until_decorrelation(self):
        env = make_env([(0.0, 0.0)], ChannelParams(shadowing_sigma_db=6.0), seed=5)
        a = env.shadowing_db(0, 0, (0.0, 0.0))
        assert env.shadowing_db(0, 0, (30.0, 0.0)) == a
        b = env.shadowing_db(0, 0, (60.0, 0.0))
        assert b != a

    def test_sites_must_be_an_n_by_2_array(self):
        # A site's id is its row, so the sites are rows of (x, y) and
        # nothing else; zero sites is a (0 x 2) array.
        for shape in [(2,), (3, 3), (3, 1), (3, 2, 1), ()]:
            with pytest.raises(ValueError, match="sites must be an"):
                RadioEnvironment(np.zeros(shape), PARAMS, RadioParams(), np.random.default_rng(0), None)
        assert make_env([]).sites.shape == (0, 2)


class TestResourceBlocks:
    def test_counts_follow_bandwidth(self):
        assert n_resource_blocks(400e6) == 277
        assert n_resource_blocks(100e6) == 69

    def test_re_scaling_matches_subcarrier_count(self):
        assert re_scaling_db(400e6) == pytest.approx(10 * math.log10(12 * 277))


class TestSiteValidation:
    """A site is only its row of the site array; the scenario gate checks
    the link budget every site shares."""

    def test_bandwidth_positive(self):
        with pytest.raises(ConfigError) as err:
            Scenario(radio=RadioParams(bandwidth_hz=0.0)).validate()
        assert err.value.field_name == "radio.bandwidth_hz"

    def test_tx_power_finite(self):
        with pytest.raises(ConfigError) as err:
            Scenario(radio=RadioParams(tx_power_dbm=float("inf"))).validate()
        assert err.value.field_name == "radio.tx_power_dbm"


class _DictShadowOracle:
    """The radio's former shadowing layout, kept as an oracle: one
    ``(cell, ue) -> (value, position drawn at)`` dict entry per pair,
    judged site by site, drawing from its own copy of the shadowing
    stream.  Its link budget is the environment's ``_received_dbm``."""

    def __init__(self, env):
        self.env = env
        self.shadow = {}
        self.partial_rows = 0  # rows that redrew some sites but not all

    def shadowing_db(self, cell, ue, position):
        state = self.shadow.get((cell, ue))
        if state is not None and math.dist(state[1], position) < 50.0:
            return state[0]
        value = float(self.env.shadow_rng.normal(0.0, self.env.params.shadowing_sigma_db))
        self.shadow[(cell, ue)] = (value, position)
        return value

    def row(self, ue, position, serving):
        env = self.env
        x, y = position
        wideband = []
        rssi_mw = serving_mw = interference_mw = 0.0
        nearest, nearest_m = 0, math.inf
        redrawn = 0
        for cid, (sx, sy) in enumerate(env.sites.tolist()):
            distance = math.hypot(sx - x, sy - y)
            if distance < nearest_m:
                nearest, nearest_m = cid, distance
            key = (cid, ue)
            state = self.shadow.get(key)
            if state is None or not math.dist(state[1], position) < 50.0:
                state = self.shadow[key] = (float(env.shadow_rng.normal(0.0, env.params.shadowing_sigma_db)), position)
                redrawn += 1
            power = env._received_dbm(distance, state[0])
            wideband.append(power)
            mw = 10.0 ** (power / 10.0)
            rssi_mw += mw
            if cid == serving:
                serving_mw = mw
            else:
                interference_mw += mw
        self.partial_rows += 0 < redrawn < len(wideband)
        return wideband, rssi_mw, serving_mw, interference_mw, nearest


class TestShadowRows:
    """Per-UE shadowing rows against the former per-(cell, UE) dict."""

    @staticmethod
    def random_schedule(sigma, seed):
        """300 random moves of 6 UEs among 19 sites, each followed by a few
        completion-time lookups and one row, every result checked against
        the oracle.  Returns the environment, the oracle and the number of
        moves that landed within one ulp of 50 m from an anchor."""
        sites = build_sites(Scenario(n_sites=19))
        params = ChannelParams(shadowing_sigma_db=sigma)
        env, oracle = make_env(sites, params, seed), _DictShadowOracle(make_env(sites, params, seed))
        rng = np.random.default_rng(100 + seed)
        n_ues, n_sites = 6, len(sites)
        positions = [(float(x), float(y)) for x, y in rng.uniform(-400.0, 400.0, (n_ues, 2))]
        boundary_moves = 0
        for _ in range(300):
            ue = int(rng.integers(n_ues))
            x, y = positions[ue]
            kind = rng.integers(4)
            if kind == 0:  # a short move, mostly inside the decorrelation distance
                positions[ue] = (x + float(rng.normal(0.0, 15.0)), y + float(rng.normal(0.0, 15.0)))
            elif kind == 1:  # 50 m, or one ulp either side, from one site's anchor
                ax, ay = oracle.shadow.get((int(rng.integers(n_sites)), ue), (None, (x, y)))[1]
                edge = ax + 50.0
                positions[ue] = (math.nextafter(edge, (-math.inf, edge, math.inf)[rng.integers(3)]), ay)
                boundary_moves += 1
            elif kind == 2:  # a long move
                positions[ue] = (x + float(rng.uniform(40.0, 120.0)), y - float(rng.uniform(0.0, 60.0)))
            position = positions[ue]
            # Completion-time lookups of single sites, so a UE's anchors
            # differ from site to site.
            for _ in range(int(rng.integers(3))):
                cell = int(rng.integers(n_sites))
                assert env.shadowing_db(cell, ue, position) == oracle.shadowing_db(cell, ue, position)
            serving = int(rng.integers(n_sites))
            assert oracle_row(env, ue, position, serving) == oracle.row(ue, position, serving)
        return env, oracle, boundary_moves

    @staticmethod
    def assert_same_values_and_stream(env, oracle, n_sites):
        """Every UE's shadowing values equal the oracle's byte for byte (the
        sign of zero included), and both streams stand at the same draw."""
        for ue, (values, _) in env._shadow.items():
            expected = [oracle.shadow[cid, ue][0] for cid in range(n_sites)]
            assert [v.hex() for v in values.tolist()] == [v.hex() for v in expected]
        assert env.shadow_rng.bit_generator.state == oracle.env.shadow_rng.bit_generator.state
        assert env.shadow_rng.normal() == oracle.env.shadow_rng.normal()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_equal_the_dict_layout(self, seed):
        env, oracle, boundary_moves = self.random_schedule(6.0, seed)
        assert oracle.partial_rows > 10 and boundary_moves > 10
        assert env.shadow_rng.normal() == oracle.env.shadow_rng.normal()

    def test_zero_sigma_rows_hold_positive_zero(self):
        # numpy's normal computes 0.0 + 0.0 * z, which is +0.0 for either
        # sign of z; a block scaled without adding 0.0 would keep -0.0.
        env, oracle, _ = self.random_schedule(0.0, 3)
        assert oracle.partial_rows > 10
        self.assert_same_values_and_stream(env, oracle, 19)
        assert all(math.copysign(1.0, v) == 1.0 for values, _ in env._shadow.values() for v in values.tolist())

    @pytest.mark.parametrize("sigma", [0.0, 6.0])
    def test_partial_redraw_after_completion_lookups(self, sigma):
        """A row whose sites were drawn at two positions: completion-time
        lookups redraw some sites 60 m on, then a row 40 m further on
        redraws only the others, a row 1 m from there redraws none, and a
        row 100 m further on redraws every site across both anchors."""
        sites = build_sites(Scenario(n_sites=19))
        params = ChannelParams(shadowing_sigma_db=sigma)
        env, oracle = make_env(sites, params, 4), _DictShadowOracle(make_env(sites, params, 4))
        ue, n_sites, looked_up = 2, len(sites), (3, 7, 8, 18)
        assert oracle_row(env, ue, (0.0, 0.0), 0) == oracle.row(ue, (0.0, 0.0), 0)
        for cell in looked_up:
            assert env.shadowing_db(cell, ue, (60.0, 0.0)) == oracle.shadowing_db(cell, ue, (60.0, 0.0))
        anchors = env._shadow[ue][1]
        for position, redrawn in (
            ((100.0, 0.0), [cid for cid in range(n_sites) if cid not in looked_up]),
            ((100.0, 1.0), []),
            ((200.0, 1.0), list(range(n_sites))),
        ):
            assert oracle_row(env, ue, position, 5) == oracle.row(ue, position, 5)
            assert [cid for cid, anchor in enumerate(anchors) if anchor is position] == redrawn
            self.assert_same_values_and_stream(env, oracle, n_sites)
        assert oracle.partial_rows == 1


class TestChannelNoise:
    """A kernel call's channel noise against each UE's own ``normal``
    calls, tick by tick."""

    # (UEs, sites) -> ticks the trajectory hands the kernel, all one block:
    # the default corridor's 2 x 2 get 1,000, hex50's 500 x 50 one.
    BLOCK_TICKS = {(1, 1): 341, (2, 2): 1000, (500, 50): 1}

    @pytest.mark.parametrize("n_ues, n_sites", sorted(BLOCK_TICKS))
    @pytest.mark.parametrize("env_sigma, meas_sigma", [(1.5, 2.0), (0.0, 0.0)])
    def test_block_equals_per_ue_draws(self, monkeypatch, n_ues, n_sites, env_sigma, meas_sigma):
        n_ticks = self.BLOCK_TICKS[n_ues, n_sites]
        params = dataclasses.replace(PARAMS, env_noise_sigma_db=env_sigma, meas_noise_sigma_db=meas_sigma)
        env = make_env([(10.0 * i, 0.0) for i in range(n_sites)], params, seed=31)
        twin = np.random.default_rng(31)
        drawn, array_chunk = [], env._array_chunk

        def recorded(xy, servings, shadowing, level, noise):
            drawn.append(noise)
            return array_chunk(xy, servings, shadowing, level, noise)

        monkeypatch.setattr(env, "_array_chunk", recorded)
        ticks = np.broadcast_to((5.0, 3.0), (n_ticks, n_ues, 2))
        rows = env.block_samples(ticks, [0] * n_ues)
        expected = [
            [float(twin.normal(0.0, env_sigma)), *twin.normal(0.0, meas_sigma, n_sites + 1).tolist()]
            for _ in range(n_ticks * n_ues)
        ]
        # The call draws the noise of all its ticks, no more, and reading
        # its rows, one per (tick, UE), draws none.
        assert env.rng.bit_generator.state == twin.bit_generator.state
        assert len(list(rows)) == n_ticks * n_ues
        assert env.rng.bit_generator.state == twin.bit_generator.state
        # Bit for bit, the sign of zero included.
        block = np.concatenate(drawn)
        assert block.tobytes() == np.array(expected).tobytes()
        if meas_sigma == 0.0:
            assert (np.copysign(1.0, block) == 1.0).all()

    def test_zero_ues_draw_nothing(self):
        env = make_env([(10.0 * i, 0.0) for i in range(3)], SHADOWED, seed=31)
        state = env.rng.bit_generator.state
        assert [list(env.block_samples(np.empty((3 - t, 0, 2)), [])) for t in range(3)] == [[], [], []]
        assert env.rng.bit_generator.state == state


def kernel_tick(env, positions, servings):
    """One report tick's samples from the kernel, UE ``i`` at
    ``positions[i]``: a call with that tick alone."""
    return [sample for sample, *_ in env.block_samples(np.array([positions]), servings)]


def scenario_env(scenario):
    """An environment seeded as a ``Simulation`` of ``scenario`` seeds its own."""
    return RadioEnvironment(
        build_sites(scenario), scenario.channel, scenario.radio,
        np.random.default_rng([scenario.seed, 1]), np.random.default_rng([scenario.seed, 3]),
    )


def assert_twins(first_env, second_env, first, second):
    """Equal samples and equal state left behind, bit for bit: ``repr``
    spells every Python float exactly, the sign of zero included, and
    ``shadow_bits`` every shadowing value.  Compared one sample and one UE
    at a time, so a failure's diff stays short."""
    assert len(first) == len(second)
    for one, other in zip(first, second):
        assert repr(one) == repr(other)
    assert first_env._env_noise.keys() == second_env._env_noise.keys()
    first_shadow, second_shadow = shadow_bits(first_env), shadow_bits(second_env)
    assert first_shadow.keys() == second_shadow.keys()
    for ue in first_env._env_noise:
        assert repr(first_env._env_noise[ue]) == repr(second_env._env_noise[ue])
    for ue in first_shadow:
        assert first_shadow[ue] == second_shadow[ue]


class TestArrayKernel:
    """Shadowed report ticks, each a kernel call of one tick computed in
    chunks, against the scalar oracle."""

    @pytest.mark.parametrize("seed", [1, 9001])
    def test_hex_ticks_equal_the_scalar_pass(self, seed):
        # 200 UEs over 50 sites take three chunks a tick; at 350 km/h each
        # UE travels about 100 m in 25 ticks, so shadowing redraws mid-run.
        scenario = Scenario(n_ues_per_cell=4, ue_speed_kmh=350.0, seed=seed)
        sites = build_sites(scenario)
        start, velocity = place_ues(scenario, sites, np.random.default_rng([seed, 0]))
        scalar_env, array_env = scenario_env(scenario), scenario_env(scenario)
        for tick in range(25):
            positions = list(map(tuple, (start + velocity * (0.04 * tick)).tolist()))
            servings = [(7 * ue + tick) % len(sites) for ue in range(len(start))]
            scalar = oracle_tick(scalar_env, positions, servings)
            assert_twins(scalar_env, array_env, scalar, kernel_tick(array_env, positions, servings))
        assert any(s.ranked for s in scalar) and any(len(s.ranked) == MAX_NEIGHBORS + 1 for s in scalar)
        assert array_env.shadow_rng.normal() == scalar_env.shadow_rng.normal()

    # Noise-free draws, so measurements sit where the shadowing puts them;
    # a mean of -0.0 runs the ambient walk through signed zeros.
    @pytest.mark.parametrize("mean", [-100.0, -0.0])
    def test_edge_positions_equal_the_scalar_pass(self, mean):
        scenario = Scenario(channel=ChannelParams(meas_noise_sigma_db=0.0, env_noise_sigma_db=0.0, env_noise_mean_dbm=mean))
        sites = build_sites(scenario)
        (x3, y3), (x1, y1) = sites[3].tolist(), sites[1].tolist()
        assert y1 == 0.0
        positions = [
            (x3 + 0.3, y3 - 0.4),  # within 1 m of site 3: the distance clamps
            (0.0, 0.0),  # on site 0, which the other sites surround in pairs at equal distances
            (x1 / 2.0, 0.0),  # exactly equidistant from sites 0 and 1
            (x3 + 1.0, y3),  # exactly 1 m from site 3
            (40.0, -60.0),  # site 5 measures exactly -125 dBm, site 6 just under
        ]
        servings = [0, 1, 1, 3, 2]
        scalar_env, array_env = scenario_env(scenario), scenario_env(scenario)
        for env in (scalar_env, array_env):
            # Without shadowing, each pair around UE 1 measures equal: ties.
            pin_shadowing(env, 1, positions[1], [0.0] * len(sites))
            values = [0.0] * len(sites)
            values[5] = shadowing_for(env, 5, positions[4], DETECTION_THRESHOLD_DBM)
            values[6] = shadowing_for(env, 6, positions[4], DETECTION_THRESHOLD_DBM, below=True)
            pin_shadowing(env, 4, positions[4], values)
        scalar = oracle_tick(scalar_env, positions, servings)
        assert_twins(scalar_env, array_env, scalar, kernel_tick(array_env, positions, servings))
        assert scalar[2].nearest == 0 and scalar[0].nearest == scalar[3].nearest == 3
        ranked = scalar[1].ranked
        assert any(scalar[1].measured[a] == scalar[1].measured[b] for a, b in zip(ranked, ranked[1:]))
        assert scalar[4].measured[5] == DETECTION_THRESHOLD_DBM and 5 in scalar[4].ranked
        assert scalar[4].measured[6] < DETECTION_THRESHOLD_DBM and 6 not in scalar[4].ranked
        assert array_env.shadow_rng.normal() == scalar_env.shadow_rng.normal()

    def test_chunks_equal_one_chunk(self, monkeypatch):
        scenario = Scenario(n_sites=19, n_ues_per_cell=1, seed=4)
        sites = build_sites(scenario)
        start, _ = place_ues(scenario, sites, np.random.default_rng([4, 0]))
        servings = [ue % len(sites) for ue in range(len(start))]
        ticks = {}
        # Chunks of 3 UEs, the last one short, against a single chunk.
        for max_pairs in (chunk_slots(3, len(sites)) + 1, 10**9):
            monkeypatch.setattr(radio, "ARRAY_PASS_MAX_PAIRS", max_pairs)
            env = scenario_env(scenario)
            samples = []
            for tick in range(3):
                positions = [(x + 30.0 * tick, y) for x, y in start.tolist()]
                samples.append(kernel_tick(env, positions, servings))
            ticks[max_pairs] = env, samples
        (chunked_env, chunked), (whole_env, whole) = ticks.values()
        assert_twins(chunked_env, whole_env, chunked, whole)

    # The kernel and the oracle fail alike.
    @pytest.mark.parametrize("array", [False, True], ids=["scalar", "array"])
    def test_nan_draw_raises(self, array):
        scenario = Scenario(n_sites=7, n_ues_per_cell=2)
        env = scenario_env(scenario)
        n_ues, width = 14, len(env.sites) + 2
        env.rng = NanAt(env.rng, 5 * width + 1 + 3)  # UE 5's site-3 measurement noise
        positions = [(10.0 * ue, 0.0) for ue in range(n_ues)]
        with pytest.raises(ValueError):
            (kernel_tick if array else oracle_tick)(env, positions, [0] * n_ues)


class TestWindowPowers:
    """Execution windows' SINRs, one block of the link budget per step,
    against the scalar oracle's rows, bit for bit."""

    @staticmethod
    def twin_sinrs(env, oracle_env, ues, positions, servings):
        """Each window's SINR from ``window_powers`` on ``env`` and from
        ``oracle_row`` on its twin ``oracle_env``, as ``float.hex`` strings;
        both refresh the windows' shadowing in id order first."""
        shadowing = np.array([env.refresh_shadowing(ue, position) for ue, position in zip(ues, positions)])
        window = [env.sinr_of(*powers).hex() for powers in env.window_powers(np.array(positions), servings, shadowing)]
        rows = [oracle_row(oracle_env, ue, position, serving) for ue, position, serving in zip(ues, positions, servings)]
        return window, [oracle_env.sinr_of(row.serving_mw, row.interference_mw).hex() for row in rows]

    # One window; windows one to a chunk, two to a chunk (the last one
    # short) and all in one chunk.
    @pytest.mark.parametrize("sigma", [0.0, 4.0])
    @pytest.mark.parametrize("max_pairs, chunks", [(1, [1] * 7), (chunk_slots(2, 19) + 1, [2, 2, 2, 1]), (4096, [7])])
    def test_edge_positions_equal_the_scalar_rows(self, monkeypatch, sigma, max_pairs, chunks):
        scenario = Scenario(n_sites=19, channel=ChannelParams(shadowing_sigma_db=sigma))
        sites = build_sites(scenario)
        (x3, y3), (x1, _) = sites[3].tolist(), sites[1].tolist()
        last = len(sites) - 1
        windows = [
            ((x3, y3), 3),  # on site 3: the distance clamps to 1 m
            ((x3 + 1.0, y3), last),  # exactly 1 m from site 3, served by the last column
            ((x3 + 0.3, y3 - 0.4), 0),  # within 1 m of site 3, served by the first column
            ((0.0, 0.0), 0),  # on site 0, which the other sites surround in pairs at equal distances
            ((x1 / 2.0, 0.0), 1),  # exactly equidistant from sites 0 and 1
            ((x1 / 2.0, 0.0), last),
            ((-250.0, 410.0), 7),  # in the open
        ]
        positions, servings = [p for p, _ in windows], [s for _, s in windows]
        monkeypatch.setattr(radio, "ARRAY_PASS_MAX_PAIRS", max_pairs)
        env, oracle_env = scenario_env(scenario), scenario_env(scenario)
        seen, link_budget = [], env._link_budget  # the rows of each chunk

        def counted(xy, *args):
            seen.append(len(xy))
            return link_budget(xy, *args)

        monkeypatch.setattr(env, "_link_budget", counted)
        # One window alone, then all of them as one block: their UE ids
        # ascend, as an execution window's do.
        window, oracle = self.twin_sinrs(env, oracle_env, [0], positions[:1], servings[:1])
        assert window == oracle
        seen.clear()
        window, oracle = self.twin_sinrs(env, oracle_env, range(1, 8), positions, servings)
        assert window == oracle
        assert seen == chunks
        assert window[4] != window[5]  # the same place, served by either side
        assert shadow_bits(env) == shadow_bits(oracle_env)
        assert env.shadow_rng.normal() == oracle_env.shadow_rng.normal()

    @pytest.mark.parametrize("sigma", [0.0, 4.0])
    def test_moving_windows_equal_the_scalar_rows(self, monkeypatch, sigma):
        # 40 UEs over 50 sites at 350 km/h, 25 ticks 40 ms apart: shadowing
        # redraws mid-run, and each window is a chunk of its own.
        monkeypatch.setattr(radio, "ARRAY_PASS_MAX_PAIRS", 50)
        scenario = Scenario(n_ues_per_cell=4, ue_speed_kmh=350.0, channel=ChannelParams(shadowing_sigma_db=sigma))
        sites = build_sites(scenario)
        start, velocity = (a[::5] for a in place_ues(scenario, sites, np.random.default_rng([1, 0])))
        ues = range(len(sites) * scenario.n_ues_per_cell)[::5]
        env, oracle_env = scenario_env(scenario), scenario_env(scenario)
        for tick in range(25):
            positions = list(map(tuple, (start + velocity * (0.04 * tick)).tolist()))
            servings = [(7 * ue + tick) % len(sites) for ue in ues]
            window, oracle = self.twin_sinrs(env, oracle_env, list(ues), positions, servings)
            assert window == oracle
        assert shadow_bits(env) == shadow_bits(oracle_env)
        assert env.shadow_rng.normal() == oracle_env.shadow_rng.normal()

    def test_completion_link_budget_is_the_helpers(self):
        # _received_dbm, which a completion's true_rsrp_of takes, gives the
        # helper's wideband power bit for bit: on a site, within, at and
        # past 1 m, in the open, with shadowing of either sign and of zero.
        env = make_env(build_sites(Scenario(n_sites=19)), SHADOWED)
        rng = np.random.default_rng(6)
        x3, y3 = env.sites[3].tolist()
        positions = np.concatenate([
            [(x3, y3), (x3 + 0.3, y3 - 0.4), (x3 + 1.0, y3), (math.nextafter(x3 + 1.0, math.inf), y3)],
            rng.uniform(-600.0, 600.0, (200, 2)),
        ])
        shadowing = rng.normal(0.0, 6.0, (len(positions), len(env.sites)))
        shadowing[0, :3] = (0.0, -0.0, 30.0)
        _, wideband, *_ = env._link_budget(positions, [0] * len(positions), shadowing)
        expected = [
            [env._received_dbm(math.hypot(sx - x, sy - y), value) for (sx, sy), value in zip(env.sites.tolist(), row)]
            for (x, y), row in zip(positions.tolist(), shadowing.tolist())
        ]
        assert wideband.tobytes() == np.array(expected).tobytes()


def tick_sample(env, row, serving):
    """A kernel row's sample as a report tick reads it for ``serving``: the
    row's own where it was computed for that cell, else with its SINR
    retaken by ``resplit_sinr``."""
    sample = row[0]
    if serving == sample.serving:
        return sample
    return sample._replace(serving=serving, sinr_db=env.resplit_sinr(row, serving))


def block_run(block_env, scalar_env, positions, servings, edges):
    """Report ticks ``0..len(positions)-1`` on the kernel and on the scalar
    oracle, UE ``i`` at ``positions[t, i]`` served by ``servings[t][i]``
    at tick ``t``.  The kernel is handed the ticks in blocks ending before
    each tick of ``edges``, as ``Simulation`` hands on its trajectory
    blocks, each for the servings of its first tick; ``resplit_sinr``
    retakes a sample's SINR at a tick whose serving differs.  Each tick's samples
    must be equal bit for bit, each call's rows exactly its ticks', and the
    ambient levels after each block; so must the next channel-noise tick
    and the next draw of its stream after the run.  Returns every UE's
    ambient level after each oracle tick."""
    levels, start = [], 0
    for end in edges:
        rows = block_env.block_samples(positions[start:end], servings[start])
        for t in range(start, end):
            block = [tick_sample(block_env, row, s) for s, row in zip(servings[t], rows)]
            scalar = oracle_tick(scalar_env, list(map(tuple, positions[t].tolist())), servings[t])
            assert [repr(sample) for sample in block] == [repr(sample) for sample in scalar]
            levels.append(list(scalar_env._env_noise.values()))
        assert next(rows, None) is None
        assert repr(block_env._env_noise) == repr(scalar_env._env_noise)
        start = end
    assert start == len(positions)
    n_ues = positions.shape[1]
    assert repr(channel_noise(block_env, n_ues)) == repr(channel_noise(scalar_env, n_ues))
    assert repr(block_env.rng.standard_normal(3)) == repr(scalar_env.rng.standard_normal(3))
    return levels


def corridor_paths(n_ticks, step_m=2.2):
    """The corridor's two UEs crossing the cell border in opposite
    directions, one report tick apart per ``step_m`` of travel."""
    travel = step_m * np.arange(n_ticks)
    ue0 = np.stack([-30.0 + travel, np.full(n_ticks, 282.0)], axis=1)
    ue1 = np.stack([210.0 - travel, np.full(n_ticks, 277.5)], axis=1)
    return np.stack([ue0, ue1], axis=1)


class TestBlockKernel:
    """Kernel calls of many ticks against the scalar oracle, tick by tick:
    a channel's without shadowing, as ``Simulation`` makes them, and a
    shadowed channel's, which the kernel computes alike."""

    @staticmethod
    def no_refresh(env, monkeypatch):
        """Make ``env`` fail on any shadowing row read."""

        def refresh(*args):
            raise AssertionError("a block tick read a shadowing row")

        monkeypatch.setattr(env, "refresh_shadowing", refresh)

    @pytest.mark.parametrize("seed", [1, 9001])
    def test_corridor_blocks_equal_the_scalar_pass(self, seed, monkeypatch):
        scenario = corridor_scenario(seed=seed)
        block_env, scalar_env = scenario_env(scenario), scenario_env(scenario)
        self.no_refresh(block_env, monkeypatch)
        positions = corridor_paths(300)
        # UE 0 hands over at tick 50, inside the first block; UE 1 at tick 150
        # and back at 170, inside the second.
        servings = [[int(t >= 50), 0 if 150 <= t < 170 else 1] for t in range(300)]
        block_run(block_env, scalar_env, positions, servings, edges=(120, 300))
        assert block_env._shadow == {} and all(v.hex() == "0x0.0p+0" for v in scalar_env._shadow[0][0].tolist())
        assert repr(block_env.shadow_rng.normal()) != repr(scalar_env.shadow_rng.normal())

    # Each chunk holds 195 rows (4,096 slots over 7 sites), which straddle
    # ticks and split the first two calls, or one row.  14 UEs at 350 km/h
    # travel about 230 m in 60 ticks, so their
    # shadowing redraws mid-block, in (tick, UE) order as rows are read.
    @pytest.mark.parametrize("max_pairs", [4096, 5 * 7])
    @pytest.mark.parametrize("seed", [1, 9001])
    def test_shadowed_blocks_equal_the_scalar_pass(self, monkeypatch, seed, max_pairs):
        monkeypatch.setattr(radio, "ARRAY_PASS_MAX_PAIRS", max_pairs)
        scenario = Scenario(n_sites=7, n_ues_per_cell=2, ue_speed_kmh=350.0, seed=seed)
        start, velocity = place_ues(scenario, build_sites(scenario), np.random.default_rng([seed, 0]))
        positions = np.array([start + velocity * (0.04 * t) for t in range(60)])
        servings = [[(ue + t // 7) % 7 for ue in range(14)] for t in range(60)]
        block_env, scalar_env = scenario_env(scenario), scenario_env(scenario)
        block_run(block_env, scalar_env, positions, servings, edges=(25, 59, 60))
        assert shadow_bits(block_env) == shadow_bits(scalar_env)
        assert block_env.shadow_rng.normal() == scalar_env.shadow_rng.normal()

    def test_walk_clamped_at_both_bounds(self, monkeypatch):
        channel = ChannelParams(shadowing_sigma_db=0.0, env_noise_mean_dbm=-0.0, env_noise_sigma_db=3.0)
        scenario = corridor_scenario(channel=channel)
        block_env, scalar_env = scenario_env(scenario), scenario_env(scenario)
        self.no_refresh(block_env, monkeypatch)
        levels = block_run(block_env, scalar_env, corridor_paths(300), [[0, 1]] * 300, edges=(300,))
        flat = [level for tick in levels for level in tick]
        assert -9.0 in flat and 9.0 in flat

    # Noise-free draws, so measurements sit where the geometry puts them; a
    # mean of -0.0 runs the ambient walk through signed zeros.
    @pytest.mark.parametrize("mean", [-100.0, -0.0])
    def test_edge_positions_equal_the_scalar_pass(self, mean, monkeypatch):
        channel = ChannelParams(
            shadowing_sigma_db=0.0, meas_noise_sigma_db=0.0, env_noise_sigma_db=0.0, env_noise_mean_dbm=mean
        )
        scenario = Scenario(n_sites=7, channel=channel)
        sites = build_sites(scenario)
        (x3, y3), (x1, _) = sites[3].tolist(), sites[1].tolist()
        block_env, scalar_env = scenario_env(scenario), scenario_env(scenario)
        self.no_refresh(block_env, monkeypatch)
        at_threshold = self.x_measuring(block_env, 0, DETECTION_THRESHOLD_DBM)
        fixed = [
            (x3 + 0.3, y3 - 0.4),  # within 1 m of site 3: the distance clamps
            (0.0, 0.0),  # on site 0, which the other sites surround in pairs at equal distances
            (x1 / 2.0, 0.0),  # exactly equidistant from sites 0 and 1
            (at_threshold, 0.0),  # site 0 measures exactly -125 dBm
            (math.nextafter(at_threshold, math.inf), 0.0),  # and just under it
        ]
        positions = np.array([fixed] * 40)
        servings = [[0, 1, 1 if t < 5 else 0, 3, 2] for t in range(40)]
        block_run(block_env, scalar_env, positions, servings, edges=(17, 40))
        clamped, centre, between, on, under = oracle_tick(scalar_env, fixed, servings[0])
        assert between.nearest == 0 and clamped.nearest == 3
        ranked = centre.ranked
        assert any(centre.measured[a] == centre.measured[b] for a, b in zip(ranked, ranked[1:]))
        assert on.measured[0] == DETECTION_THRESHOLD_DBM and 0 in on.ranked
        assert under.measured[0] < DETECTION_THRESHOLD_DBM and 0 not in under.ranked

    @staticmethod
    def x_measuring(env, cell, target):
        """The largest x on the site axis at which ``cell``'s noise-free
        measurement is ``target`` dBm or more; it must be exactly ``target``."""
        sx, sy = env.sites[cell].tolist()

        def measured(x):
            return env._received_dbm(math.hypot(sx - x, sy - 0.0), 0.0) - env._re_scaling_db

        lo, hi = sx + 1.0, sx + 1e4
        while math.nextafter(lo, math.inf) < hi:
            mid = (lo + hi) / 2.0
            lo, hi = (mid, hi) if measured(mid) >= target else (lo, mid)
        assert measured(lo) == target
        return lo

    def test_one_site(self, monkeypatch):
        params = dataclasses.replace(PARAMS, meas_noise_sigma_db=2.0, env_noise_sigma_db=2.0)
        block_env, scalar_env = (make_env([(0.0, 0.0)], params, seed=5) for _ in range(2))
        self.no_refresh(block_env, monkeypatch)
        positions = np.array([[(30.0 + t, 5.0), (-200.0, 80.0 - t), (0.5, 0.0)] for t in range(400)])
        block_run(block_env, scalar_env, positions, [[0, 0, 0]] * 400, edges=(400,))

    def test_zero_ues_draw_nothing(self):
        env = make_env([(10.0 * i, 0.0) for i in range(3)], seed=31)
        state = env.rng.bit_generator.state
        assert [list(env.block_samples(np.empty((5 - t, 0, 2)), [])) for t in range(5)] == [[]] * 5
        assert env.rng.bit_generator.state == state and env._env_noise == {}


class TestChunkRows:
    """The report kernel, ``window_powers`` and ``nearest_cell`` each take
    their rows in chunks of at most ``ARRAY_PASS_MAX_PAIRS // (n_sites +
    MAX_NEIGHBORS + 6)`` rows, at least one: a row counts its sites and its
    sample's fixed fields, so the bound holds for the samples a chunk builds
    too."""

    @staticmethod
    def record_chunks(monkeypatch):
        """Each chunk's row count, by the array body that takes it: a kernel
        chunk reaches ``_array_chunk``, a kernel or window chunk
        ``_link_budget``, and a chunk of any of the three ``_distances``."""
        seen = {"_array_chunk": [], "_link_budget": [], "_distances": []}
        for name, rows in seen.items():
            def counted(env, xy, *args, _rows=rows, _method=getattr(RadioEnvironment, name)):
                _rows.append(len(xy))
                return _method(env, xy, *args)

            monkeypatch.setattr(RadioEnvironment, name, counted)
        return seen

    # 1,000 rows: the corridor's 2 sites take 256 a chunk, hex50's 50 take 64.
    @pytest.mark.parametrize("scenario, per_chunk", [(corridor_scenario(), 256), (Scenario(), 64)],
                             ids=["corridor", "hex50"])
    def test_each_caller_chunks_its_rows(self, monkeypatch, scenario, per_chunk):
        env = scenario_env(scenario)
        n_sites = len(env.sites)
        assert per_chunk == radio.ARRAY_PASS_MAX_PAIRS // (n_sites + MAX_NEIGHBORS + 6)
        chunks = [per_chunk] * (1000 // per_chunk) + [1000 % per_chunk]
        xy = np.random.default_rng(5).uniform(-400.0, 600.0, (1000, 2))
        servings = [row % n_sites for row in range(1000)]
        seen = self.record_chunks(monkeypatch)
        env.nearest_cell(xy)
        assert seen == {"_array_chunk": [], "_link_budget": [], "_distances": chunks}
        seen["_distances"].clear()
        list(env.window_powers(xy, servings, [[0.0] * n_sites] * 1000))
        assert seen == {"_array_chunk": [], "_link_budget": chunks, "_distances": chunks}
        for rows in seen.values():
            rows.clear()
        # 100 ticks of 10 UEs.
        list(env.block_samples(xy.reshape(100, 10, 2), servings[:10]))
        assert seen == {"_array_chunk": chunks, "_link_budget": chunks, "_distances": chunks}

    def test_corridor_run_takes_its_block_in_chunks(self, monkeypatch):
        # One kernel call at tick 0 yields the whole 40 s run's 1,000 ticks
        # of 2 UEs: 2,000 rows, whose samples are built 256 rows at a time.
        calls, block_samples = [], RadioEnvironment.block_samples

        def counted(env, ticks, servings):
            calls.append(len(ticks) * len(servings))
            return block_samples(env, ticks, servings)

        monkeypatch.setattr(RadioEnvironment, "block_samples", counted)
        seen = self.record_chunks(monkeypatch)
        Simulation(corridor_scenario()).run()
        assert calls == [2000]
        assert seen["_array_chunk"] == [256] * 7 + [208]
