"""Scenario construction, mobility, determinism, and the step loop."""

import dataclasses
import gc
import itertools
import math
import weakref

import numpy as np
import pytest

from hosim import radio
from hosim import sim as sim_module
from hosim.engine import EXECUTING, HandoverOutcome, note_execution_sinr
from hosim.metrics import MetricsAccumulator
from hosim.radio import (
    ChannelParams,
    RadioEnvironment,
    RadioParams,
    db_to_linear,
    free_space_reference_db,
    linear_to_db,
    re_scaling_db,
)
from hosim.rl import LearningParams
from hosim.sim import (
    ConfigError,
    Scenario,
    Simulation,
    _reflect,
    build_sites,
    place_ues,
    run,
)
from corridor import corridor_scenario
from scalar_oracle import oracle_nearest, oracle_row, oracle_samples, shadow_bits

NOISELESS = ChannelParams(shadowing_sigma_db=0.0, meas_noise_sigma_db=0.0, env_noise_sigma_db=0.0)


def noiseless_corridor(**overrides):
    return corridor_scenario(channel=NOISELESS, **overrides)


class TestScenarioValidation:
    def test_defaults_valid(self):
        Scenario().validate()
        corridor_scenario().validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("layout", "ring"),
            ("n_sites", 0),
            ("sim_duration_s", 0.0),
            ("step_s", 0.0),
            ("policy", "magic"),
            ("n_ues_per_cell", -1),
            ("ue_speed_kmh", -5.0),
            ("cell_radius_m", 0.0),
            ("boundary_margin_m", math.nan),
            ("fixed_ttt_ms", 7),
            ("fixed_hyst_db", 31),
            ("step_s", 5e-324),
            ("seed", -1),
            ("sim_duration_s", 0.0005),
        ],
    )
    def test_invalid_fields_name_the_field(self, field, value):
        scenario = dataclasses.replace(Scenario(), **{field: value})
        with pytest.raises(ConfigError) as err:
            scenario.validate()
        assert err.value.field_name == f"sim.{field}"

    @pytest.mark.parametrize(
        "scenario,field",
        [
            (Scenario(channel=ChannelParams(path_loss_exponent=math.nan)), "channel.path_loss_exponent"),
            (Scenario(learning=LearningParams(r=math.inf)), "learning.r"),
            (Scenario(radio=RadioParams(carrier_freq_hz=0.0)), "radio.carrier_freq_hz"),
            (Scenario(radio=RadioParams(bandwidth_hz=1e6)), "radio.bandwidth_hz"),
            # A sigma's sign bit: numpy's normal refuses a -0.0 scale.
            *[(Scenario(channel=ChannelParams(**{key: -0.0})), f"channel.{key}")
              for key in ("shadowing_sigma_db", "meas_noise_sigma_db", "env_noise_sigma_db")],
        ],
    )
    def test_nested_fields_named_by_path(self, scenario, field):
        with pytest.raises(ConfigError) as err:
            scenario.validate()
        assert err.value.field_name == field

    def test_report_period_must_be_step_multiple(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(Scenario(), step_s=0.03, report_period_s=0.04).validate()

    def test_corridor_needs_two_sites(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(corridor_scenario(), n_sites=1).validate()


class TestLayouts:
    def test_hex_counts_and_uniqueness(self):
        sites = build_sites(Scenario(n_sites=50))
        assert sites.shape == (50, 2) and sites.dtype == float
        assert len(set(map(tuple, sites.tolist()))) == 50

    def test_hex_neighbor_pitch(self):
        sites = build_sites(Scenario(n_sites=7, cell_radius_m=150.0))
        for pos in sites[1:]:
            assert np.linalg.norm(pos - sites[0]) == pytest.approx(math.sqrt(3) * 150.0)

    def test_corridor_row(self):
        sites = build_sites(corridor_scenario())
        assert sites.tolist() == [[0.0, 0.0], [180.0, 0.0]]

    def test_zero_sites_is_an_empty_site_array(self):
        for scenario in (Scenario(n_sites=0), corridor_scenario(n_sites=0)):
            assert build_sites(scenario).shape == (0, 2)


class TestPlacement:
    def test_zero_ues(self):
        scenario = dataclasses.replace(Scenario(n_sites=3), n_ues_per_cell=0)
        start, velocity = place_ues(scenario, build_sites(scenario), np.random.default_rng(0))
        assert start.shape == velocity.shape == (0, 2)
        sim = Simulation(scenario)
        assert sim.contexts == [] and sim._block.shape == (1, 0, 2)
        # The shadowed run completes: a tick of no UEs holds no kernel row.
        assert sim.run().outcomes == []

    def test_hex_placement_within_cell_radius(self):
        scenario = dataclasses.replace(Scenario(n_sites=10), n_ues_per_cell=1000)
        sites = build_sites(scenario)
        start, velocity = place_ues(scenario, sites, np.random.default_rng(1))
        assert start.shape == velocity.shape == (10_000, 2)
        for ue, position in enumerate(start.tolist()):
            assert math.dist(position, sites[ue // 1000].tolist()) <= scenario.cell_radius_m + 1e-9

    def test_placement_deterministic_by_seed(self):
        scenario = Scenario(n_sites=5)
        sites = build_sites(scenario)
        a = place_ues(scenario, sites, np.random.default_rng(3))
        b = place_ues(scenario, sites, np.random.default_rng(3))
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))

    def test_corridor_ues_head_toward_far_site(self):
        scenario = corridor_scenario(n_ues_per_cell=3)
        start, velocity = place_ues(scenario, build_sites(scenario), np.random.default_rng(0))
        assert (velocity[:3, 0] > 0).all() and (velocity[3:, 0] < 0).all()
        assert (np.abs(start[:, 1] - 280.0) <= 10.0).all()

    @pytest.mark.parametrize("scenario", [
        Scenario(n_sites=7, n_ues_per_cell=3, seed=5),
        corridor_scenario(n_sites=5, n_ues_per_cell=4, seed=2),
    ], ids=["hex", "corridor"])
    def test_placement_draws_each_ue_in_turn(self, scenario):
        # Each UE's own scalar draws from the setup stream, in id order, and
        # the arithmetic of its placement in plain Python floats.
        sites = build_sites(scenario)
        rng, speed = np.random.default_rng(9), scenario.ue_speed_kmh / 3.6
        positions, velocities = [], []
        for sx, sy in sites.tolist():
            for _ in range(scenario.n_ues_per_cell):
                if scenario.layout == "corridor":
                    direction = 1.0 if sx <= sites[len(sites) // 2, 0] else -1.0
                    offset = float(rng.uniform(10.0, 30.0))
                    y = scenario.corridor_lane_m + float(rng.uniform(-10.0, 10.0))
                    positions.append((sx + direction * offset, y))
                    velocities.append((direction * speed, 0.0))
                else:
                    radius = min(float(rng.exponential(scenario.cell_radius_m / 2.0)), scenario.cell_radius_m)
                    angle, heading = float(rng.uniform(0.0, 2.0 * math.pi)), float(rng.uniform(0.0, 2.0 * math.pi))
                    positions.append((sx + radius * math.cos(angle), sy + radius * math.sin(angle)))
                    velocities.append((speed * math.cos(heading), speed * math.sin(heading)))
        start, velocity = place_ues(scenario, sites, np.random.default_rng(9))
        assert start.tobytes() == np.array(positions).tobytes() and velocity.tobytes() == np.array(velocities).tobytes()

    def test_corridor_ues_start_inside_at_minimum_margin(self):
        for n_sites, spacing, lane in itertools.product((2, 3, 4, 5), (1.0, 5.0, 20.0), (-40.0, 0.0, 40.0)):
            margin = max(abs(lane) + 10.0, 30.0 - spacing)
            for seed in range(5):
                scenario = corridor_scenario(n_sites=n_sites, site_spacing_m=spacing, corridor_lane_m=lane,
                                             boundary_margin_m=margin, n_ues_per_cell=20, seed=seed)
                sim = Simulation(scenario)
                (xmin, ymin), (xmax, ymax) = sim._bounds.tolist()
                assert all(xmin <= x <= xmax and ymin <= y <= ymax for x, y in sim._block[0].tolist())
            with pytest.raises(ConfigError) as err:
                dataclasses.replace(scenario, boundary_margin_m=margin - 0.5).validate()
            assert err.value.field_name == "sim.boundary_margin_m"

    def test_hex_margin_must_cover_the_cell_radius(self):
        scenario = Scenario(n_sites=7, boundary_margin_m=150.0)
        sim = Simulation(scenario)
        (xmin, ymin), (xmax, ymax) = sim._bounds.tolist()
        assert all(xmin <= x <= xmax and ymin <= y <= ymax for x, y in sim._block[0].tolist())
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(scenario, boundary_margin_m=149.0).validate()
        assert err.value.field_name == "sim.boundary_margin_m"

    def test_speed_magnitude_constant(self):
        scenario = Scenario(n_sites=4, ue_speed_kmh=90.0)
        _, velocity = place_ues(scenario, build_sites(scenario), np.random.default_rng(2))
        assert np.linalg.norm(velocity, axis=1) == pytest.approx([25.0] * len(velocity))


class TestStepLoop:
    def test_two_seconds_at_one_ms_is_2000_steps(self):
        sim = Simulation(noiseless_corridor(step_s=0.001, sim_duration_s=2.0))
        assert sim.n_steps == 2000

    def test_sample_count_matches_report_cadence(self):
        scenario = noiseless_corridor(sim_duration_s=1.0, policy="fixed_a3")
        sim = Simulation(scenario)
        result = sim.run()
        assert sim.metrics.n_samples == 2 * 25  # 2 UEs, 25 reports/s

    def test_zero_velocity_produces_no_handovers(self):
        scenario = noiseless_corridor(ue_speed_kmh=0.0, sim_duration_s=4.0, policy="fixed_a3")
        result = run(scenario)
        assert result.kpis.ho_decisions == 0

    def test_reflection_keeps_ues_inside_bounds(self):
        scenario = noiseless_corridor(sim_duration_s=30.0, policy="fixed_a3")
        sim = Simulation(scenario)
        (xmin, ymin), (xmax, ymax) = sim._bounds.tolist()
        for _ in range(sim.n_steps):
            sim.step()
            for i in range(len(sim.contexts)):
                x, y = sim.position(i)
                assert xmin - 1e-6 <= x <= xmax + 1e-6
                assert ymin - 1e-6 <= y <= ymax + 1e-6

    def test_steps_longer_than_the_box_stay_inside(self):
        # 111 m per step in a 59 m wide box: a step can cross both walls.
        scenario = corridor_scenario(site_spacing_m=1, corridor_lane_m=0, boundary_margin_m=29,
                                     ue_speed_kmh=1000, step_s=0.4, report_period_s=0.4)
        sim = Simulation(scenario)
        (xmin, ymin), (xmax, ymax) = sim._bounds.tolist()
        assert scenario.ue_speed_kmh / 3.6 * scenario.step_s > xmax - xmin
        for _ in range(sim.n_steps):
            sim.step()
            for i in range(len(sim.contexts)):
                x, y = sim.position(i)
                assert xmin <= x <= xmax and ymin <= y <= ymax

    @pytest.mark.parametrize("travel", [0.5, 3.0, 7.25, 10.0, 123.456, -2.0, -9.5, -77.0])
    def test_reflect_folds_like_repeated_mirrors(self, travel):
        # Start inside [0, 4] and mirror at each wall until inside again.
        p, v = 1.0 + travel, math.copysign(1.0, travel)
        while not 0.0 <= p <= 4.0:
            p, v = (-p, -v) if p < 0.0 else (8.0 - p, -v)
        folded, velocity = _reflect(1.0 + travel, math.copysign(1.0, travel), 0.0, 4.0)
        assert folded == pytest.approx(p, abs=1e-12)
        assert velocity == v

    def test_reflect_ends_inside_for_huge_steps(self):
        for p in (1e300, -1e300, 4.0 + 1e-12, math.nextafter(0.0, -1.0)):
            folded, _ = _reflect(p, 1.0, 0.0, 4.0)
            assert 0.0 <= folded <= 4.0

    @pytest.mark.parametrize("axis, side", [(0, 0), (0, 1), (1, 0), (1, 1)], ids=["xmin", "xmax", "ymin", "ymax"])
    def test_reflection_mirrors_only_the_crossing_axis(self, monkeypatch, axis, side):
        scenario = noiseless_corridor()
        lo, hi = Simulation(scenario)._bounds.tolist()
        dt = scenario.step_s
        bound = (lo, hi)[side][axis]
        inward = 1.0 if side == 0 else -1.0
        # One UE one metre inside the wall, heading out at 2 m per step,
        # with a slow drift along the other axis.
        start = [(lo[0] + hi[0]) / 2, (lo[1] + hi[1]) / 2]
        start[axis] = bound + inward
        velocity = [3.0, 3.0]
        velocity[axis] = -inward * 2.0 / dt
        monkeypatch.setattr(sim_module, "place_ues", lambda *args: (np.array([start]), np.array([velocity])))
        sim = Simulation(scenario)
        assert sim.position(0) == tuple(start)
        sim.step()
        folded = sim.position(0)
        sim.step()

        crossed = start[axis] + velocity[axis] * dt
        assert inward * (crossed - bound) < 0
        other = 1 - axis
        assert folded[axis] == 2 * bound - crossed
        assert folded[other] == start[other] + velocity[other] * dt
        # The next step runs back inward; the other axis keeps its course.
        assert sim.position(0)[axis] == folded[axis] + -velocity[axis] * dt
        assert sim.position(0)[other] == folded[other] + velocity[other] * dt

    def test_nearest_cell_tie_goes_to_lowest_site_id(self):
        # The origin is 10 m from all three sites.
        sites = np.array([(0.0, 10.0), (-10.0, 0.0), (10.0, 0.0)])
        env = RadioEnvironment(sites, NOISELESS, RadioParams(), np.random.default_rng(0), np.random.default_rng(1))
        positions = [(0.0, 0.0), (0.0, -1.0), (0.5, -1.0)]
        assert env.nearest_cell(np.array(positions)) == [0, 1, 2]
        assert [oracle_nearest(env, p) for p in positions] == [0, 1, 2]

    @pytest.mark.parametrize("scenario", [Scenario(), Scenario(seed=9001), noiseless_corridor(n_ues_per_cell=5)],
                             ids=["hex50", "hex50-9001", "corridor"])
    def test_every_ue_starts_on_its_nearest_site_in_one_pass(self, monkeypatch, scenario):
        calls, nearest_cell = [], RadioEnvironment.nearest_cell

        def counted(env, xy):
            calls.append(len(xy))
            return nearest_cell(env, xy)

        monkeypatch.setattr(RadioEnvironment, "nearest_cell", counted)
        sim = Simulation(scenario)
        n_ues = len(sim.contexts)
        assert calls == [n_ues]
        start = [sim.position(ue) for ue in range(n_ues)]
        assert [ctx.serving for ctx in sim.contexts] == [oracle_nearest(sim.env, p) for p in start]


def report_tick_scenario():
    """Seven hex sites, two UEs each; no UE is executing at the first tick."""
    return Scenario(n_sites=7, n_ues_per_cell=2, policy="fixed_a3", sim_duration_s=0.2)


class TestReportTick:
    def test_one_received_power_pass_per_ue(self, monkeypatch):
        scenario = report_tick_scenario()
        sim = Simulation(scenario)
        env = sim.env
        passes, sinrs = [], []
        refresh, add_sample = RadioEnvironment.refresh_shadowing, MetricsAccumulator.add_sample

        def counted_refresh(self, ue, *args):
            passes.append(ue)
            return refresh(self, ue, *args)

        def no_window(*args):
            raise AssertionError("a report tick computed an execution window block")

        def recorded_add_sample(self, time_s, sinr_db, attached):
            sinrs.extend(sinr_db)
            return add_sample(self, time_s, sinr_db, attached)

        monkeypatch.setattr(RadioEnvironment, "refresh_shadowing", counted_refresh)
        monkeypatch.setattr(RadioEnvironment, "window_sinrs", no_window)
        monkeypatch.setattr(MetricsAccumulator, "add_sample", recorded_add_sample)
        assert all(ctx.phase != EXECUTING for ctx in sim.contexts)
        start = [sim.position(ue) for ue in range(len(sim.contexts))]
        sim.step()  # the first report tick
        assert passes == list(range(len(start)))
        assert len(sinrs) == len(start)
        monkeypatch.undo()

        # The link budget evaluated site by site from the cached shadowing,
        # interference summed left to right in id order.
        reference_db = free_space_reference_db(scenario.radio.carrier_freq_hz)
        noise_mw = db_to_linear(
            scenario.channel.thermal_noise_density_dbm_hz
            + linear_to_db(scenario.radio.bandwidth_hz)
            + scenario.radio.noise_figure_db
        )
        for ue, (position, ctx, value) in enumerate(zip(start, sim.contexts, sinrs)):
            serving = ctx.serving

            def power(cid):
                sx, sy = env.sites[cid].tolist()
                d = max(math.hypot(sx - position[0], sy - position[1]), 1.0)
                path_loss = reference_db + 10.0 * scenario.channel.path_loss_exponent * math.log10(d)
                shadowing = env.shadowing_db(cid, ue, position)
                return db_to_linear(scenario.radio.tx_power_dbm - path_loss - shadowing)

            interference = 0.0
            for cid in range(len(env.sites)):
                if cid != serving:
                    interference += power(cid)
            assert value == linear_to_db(power(serving) / (interference + noise_mw))

    def test_link_budget_constants_not_rederived(self, monkeypatch):
        sim = Simulation(report_tick_scenario())
        calls = []

        def counted(name):
            original = getattr(radio, name)

            def wrapper(*args):
                calls.append(name)
                return original(*args)

            return wrapper

        for name in ("free_space_reference_db", "re_scaling_db"):
            monkeypatch.setattr(radio, name, counted(name))
        sim.step()  # the first report tick
        assert calls == []

    def test_hex_tick_is_read_chunk_by_chunk(self, monkeypatch):
        # hex50's 500 UEs x 50 sites take 8 chunks of at most 64 UEs; each
        # is computed only once the reports before it are made, so a tick
        # holds one chunk's arrays at a time.
        events = []
        chunk, report = RadioEnvironment._array_chunk, RadioEnvironment.generate_report

        def recorded(name, fn):
            def wrapper(*args):
                events.append(name)
                return fn(*args)

            return wrapper

        monkeypatch.setattr(RadioEnvironment, "_array_chunk", recorded("chunk", chunk))
        monkeypatch.setattr(RadioEnvironment, "generate_report", recorded("report", report))
        sim = Simulation(Scenario(policy="fixed_a3", sim_duration_s=0.04))
        sim.step()
        assert events.count("chunk") == 8 and events.count("report") == 500
        # Each chunk, then its 64 reports.
        starts = [k for k, event in enumerate(events) if event == "chunk"]
        assert starts == [65 * n for n in range(8)]

    # A shadowed run, whose one kernel call ends at the run's last tick, and
    # the corridor's, whose last block does too.
    @pytest.mark.parametrize("scenario", [report_tick_scenario(), corridor_scenario(sim_duration_s=6.0)],
                             ids=["hex7", "corridor"])
    def test_finished_run_holds_no_reference_cycle(self, scenario):
        # Without the cyclic collector, only reference counts free a run.
        gc.disable()
        try:
            sim = Simulation(scenario)
            sim.run()
            env = weakref.ref(sim.env)
            del sim
            assert env() is None
        finally:
            gc.enable()


class TestExecutingList:
    @pytest.mark.parametrize("policy", ["lim2", "fixed_a3"])
    def test_list_tracks_executing_phase(self, policy):
        # A 1 s run on the 50-site hex deployment.
        sim = Simulation(Scenario(policy=policy, sim_duration_s=1.0))
        seen = 0
        for _ in range(sim.n_steps):
            sim.step()
            assert sim._executing == [i for i, c in enumerate(sim.contexts) if c.phase == EXECUTING]
            seen += len(sim._executing)
        assert seen > 0


def eager_step(trajectories, bounds, dt):
    """Move every ``[position, velocity]`` pair one step, as a step loop
    that advances every UE at every step would."""
    (xmin, ymin), (xmax, ymax) = bounds.tolist()
    for t in trajectories:
        (x, y), (vx, vy) = t
        x += vx * dt
        y += vy * dt
        if xmin <= x <= xmax and ymin <= y <= ymax:
            t[0] = (x, y)
        else:
            x, vx = _reflect(x, vx, xmin, xmax)
            y, vy = _reflect(y, vy, ymin, ymax)
            t[0], t[1] = (x, y), (vx, vy)


class TestLazyPositions:
    """Positions laid out ahead in trajectory blocks against eager stepping."""

    @pytest.mark.parametrize("scenario, blocks", [
        (Scenario(policy="fixed_a3", sim_duration_s=1.0), 25),
        # 278 m a second in a box 150 m beyond the outer sites: outer UEs fold.
        (Scenario(policy="fixed_a3", ue_speed_kmh=1000, sim_duration_s=1.0), 25),
        # lim2's execution windows read positions between report ticks.
        (Scenario(policy="lim2", ue_speed_kmh=350, sim_duration_s=1.0), 25),
        # 2,500 steps in 2,048-step blocks.
        (corridor_scenario(policy="fixed_a3", sim_duration_s=100.0), 2),
        # 111 m per step in a 59 m wide box: a step can cross both walls.
        (corridor_scenario(site_spacing_m=1, corridor_lane_m=0, boundary_margin_m=29, ue_speed_kmh=1000,
                           step_s=0.4, report_period_s=0.4), 1),
        # 30 UEs x 10 sites; 111 m per step in a 67 m by 58 m box, five
        # steps between report ticks.
        (corridor_scenario(policy="fixed_a3", n_sites=10, n_ues_per_cell=3, site_spacing_m=1, corridor_lane_m=0,
                           boundary_margin_m=29, ue_speed_kmh=1000, step_s=0.4, report_period_s=2.0), 1),
        # 18 UEs get five report periods per block.
        (Scenario(policy="fixed_a3", n_sites=18, n_ues_per_cell=1, sim_duration_s=2.0), 10),
    ], ids=["hex50-1s", "hex50-1000kmh", "lim2-hex", "corridor", "59m-box", "300-pairs-step-past-box", "18x18"])
    def test_positions_equal_eager_stepping(self, monkeypatch, scenario, blocks):
        """Every UE's position at every step, bit for bit; every case folds."""
        reflect, folded = sim_module._reflect, []

        def counted_reflect(*args):
            folded.append(args)
            return reflect(*args)

        monkeypatch.setattr(sim_module, "_reflect", counted_reflect)
        sim = Simulation(scenario)
        oracle = [[sim.position(ue), tuple(v)] for ue, v in enumerate(sim._velocity.tolist())]

        def equal_bits():
            lazy = np.array([sim.position(i) for i in range(len(oracle))])
            return lazy.tobytes() == np.array([position for position, _ in oracle]).tobytes()

        assert equal_bits()
        block_starts = set()
        for _ in range(sim.n_steps):
            sim.step()
            block_starts.add(sim._block_start)
            eager_step(oracle, sim._bounds, scenario.step_s)
            assert equal_bits()
        assert len(block_starts) == blocks
        assert folded


class FullRowEveryStep(Simulation):
    """Execution tracking without the skips: a full scalar row from the
    oracle, and the SINR it gives, for every executing UE at every step,
    report steps and windows that have already failed included.  Counts
    its rows in ``rows``."""

    rows = 0

    def step(self):
        now = self.time_s
        if self._step_index == self._block_start + len(self._block) - 1:
            self._advance_positions()
        self._complete_due_handovers(now)
        if self._step_index % self.report_every == 0:
            self._report_tick(now)
        for i in self._executing:
            ctx = self.contexts[i]
            row = oracle_row(self.env, i, self.position(i), ctx.serving)
            note_execution_sinr(ctx, self.env.sinr_of(row.serving_mw, row.interference_mw))
            self.rows += 1
        self._step_index += 1


class TestFailedWindowSkip:
    """Windows that skip SINR passes once failed, and report steps that
    reuse the report row, against full oracle rows at every executing
    step."""

    # (policy, seed) -> live windows of the 1 s run's window blocks and UE
    # rows of the full-row oracle.  Report ticks add no window row, so each
    # counted row is an execution window's.
    ROW_PASSES = {
        ("fixed_a3", 1): (87, 3390),
        ("fixed_a3", 9001): (104, 3820),
        ("lim2", 1): (1623, 4770),
        ("lim2", 9001): (1517, 4050),
    }

    @pytest.mark.parametrize("policy, seed", sorted(ROW_PASSES))
    def test_outcomes_and_shadowing_equal_full_rows(self, monkeypatch, policy, seed):
        window_rows = []
        window_sinrs = RadioEnvironment.window_sinrs

        def counted_window_sinrs(self, ues, xy, live, servings):
            window_rows.append(len(live))
            return window_sinrs(self, ues, xy, live, servings)

        monkeypatch.setattr(RadioEnvironment, "window_sinrs", counted_window_sinrs)
        scenario = Scenario(policy=policy, seed=seed, sim_duration_s=1.0)
        lean, full = Simulation(scenario), FullRowEveryStep(scenario)
        lean.run()
        full.run()
        fields = [f.name for f in dataclasses.fields(HandoverOutcome)]
        assert len(lean.metrics.outcomes) == len(full.metrics.outcomes) > 0
        for a, b in zip(lean.metrics.outcomes, full.metrics.outcomes):
            assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]
        assert shadow_bits(lean.env) == shadow_bits(full.env)
        assert lean.env.shadow_rng.normal() == full.env.shadow_rng.normal()
        assert (sum(window_rows), full.rows) == self.ROW_PASSES[policy, seed]


class TestBlockPass:
    """Report ticks on kernel calls of many ticks, against the same runs a
    tick at a time: on the kernel with one-tick calls, and, without
    shadowing, on the scalar oracle; and how many ticks each call holds,
    and how long its rows live."""

    # Seven mid-band hex sites with two UEs each at 350 km/h and a 4 ms step:
    # 29-tick trajectory blocks, each one kernel call, and ten steps
    # between report ticks on which execution windows run.  Under
    # greedy_rsrp 79 of 106 handovers succeed, so servings change mid-block.
    SCENARIO = Scenario(
        n_sites=7, n_ues_per_cell=2, ue_speed_kmh=350.0, step_s=0.004, sim_duration_s=4.0,
        radio=RadioParams(carrier_freq_hz=3.5e9, bandwidth_hz=100e6), channel=ChannelParams(shadowing_sigma_db=0.0),
    )

    @pytest.mark.parametrize("policy", ["lim2", "fixed_a3", "greedy_rsrp"])
    @pytest.mark.parametrize("array", [False, True], ids=["scalar", "array"])
    def test_runs_equal_the_per_tick_kernels(self, monkeypatch, policy, array):
        scenario = dataclasses.replace(self.SCENARIO, policy=policy)
        resplits, resplit_sinr = [], RadioEnvironment.resplit_sinr

        def counted_resplit(*args):
            resplits.append(1)
            return resplit_sinr(*args)

        monkeypatch.setattr(RadioEnvironment, "resplit_sinr", counted_resplit)
        expected = Simulation(scenario).run()
        assert bool(resplits) == (policy == "greedy_rsrp")
        # Each trajectory block is one report period, so each kernel call is
        # one tick, computed for its own servings: no split is redone.
        monkeypatch.setattr(sim_module, "TRAJECTORY_BLOCK_UE_STEPS", 1)
        if not array:
            monkeypatch.setattr(RadioEnvironment, "block_samples", oracle_samples)
        resplits.clear()
        per_tick = Simulation(scenario)
        result = per_tick.run()
        assert not resplits
        assert repr(result.kpis) == repr(expected.kpis)
        assert repr(result.outcomes) == repr(expected.outcomes) and expected.outcomes
        assert repr(result.qtables) == repr(expected.qtables)

    # Shadowed channels: 14 UEs over 7 hex sites at 350 km/h get 7-tick
    # calls, with execution windows between the ticks under lim2 and
    # greedy_rsrp; the corridor at 4 dB and a 10 ms step gets 512-tick
    # calls, with windows between ticks and servings that change mid-call.
    # A tick's shadowing must be read after the completions and windows
    # before it, as its one-tick call reads it.
    @pytest.mark.parametrize("policy", ["lim2", "fixed_a3", "greedy_rsrp"])
    @pytest.mark.parametrize("scenario", [
        Scenario(n_sites=7, n_ues_per_cell=2, ue_speed_kmh=350.0, sim_duration_s=4.0),
        corridor_scenario(
            channel=dataclasses.replace(corridor_scenario().channel, shadowing_sigma_db=4.0),
            step_s=0.01, sim_duration_s=10.0,
        ),
    ], ids=["hex7", "corridor-4dB"])
    def test_shadowed_runs_equal_one_tick_calls(self, monkeypatch, scenario, policy):
        scenario = dataclasses.replace(scenario, policy=policy)
        blocks, block_samples = [], RadioEnvironment.block_samples

        def counted(env, ticks, servings):
            blocks.append(len(ticks))
            return block_samples(env, ticks, servings)

        monkeypatch.setattr(RadioEnvironment, "block_samples", counted)
        many = Simulation(scenario)
        expected = many.run()
        assert max(blocks) > 1
        monkeypatch.setattr(sim_module, "TRAJECTORY_BLOCK_UE_STEPS", 1)
        blocks.clear()
        one = Simulation(scenario)
        result = one.run()
        assert set(blocks) == {1}
        assert repr(result.kpis) == repr(expected.kpis)
        assert repr(result.outcomes) == repr(expected.outcomes) and expected.outcomes
        assert shadow_bits(one.env) == shadow_bits(many.env)
        assert one.env.shadow_rng.normal() == many.env.shadow_rng.normal()

    # The simulation asks the kernel, at each trajectory block's first
    # report tick, for every report tick the block holds, with shadowing or
    # without: the default corridor's whole 1,000-tick run, 48 ticks of 97
    # UE-steps for its 2 UEs, or the 5 ticks a 0.2 s run keeps of the
    # 7-period block of 14 hex UEs.
    @pytest.mark.parametrize("scenario, ue_steps, sizes", [
        (corridor_scenario(), None, [1000]),
        (corridor_scenario(), 97, [48] * 20 + [40]),
        (Scenario(n_sites=7, n_ues_per_cell=2, sim_duration_s=0.2), None, [5]),
    ], ids=["corridor", "corridor-97", "hex7-shadowed"])
    def test_kernel_blocks_are_trajectory_blocks(self, monkeypatch, scenario, ue_steps, sizes):
        if ue_steps is not None:
            monkeypatch.setattr(sim_module, "TRAJECTORY_BLOCK_UE_STEPS", ue_steps)
        blocks, block_samples = [], RadioEnvironment.block_samples

        def counted(env, ticks, servings):
            blocks.append(len(ticks))
            return block_samples(env, ticks, servings)

        monkeypatch.setattr(RadioEnvironment, "block_samples", counted)
        run(scenario)
        assert blocks == sizes

    # Rows are asked for at each trajectory block's first report tick: three
    # 280-step blocks of a 0.7 s shadowed hex run, 21 of the corridor's 97
    # UE-step blocks; without the cyclic collector only reference counts
    # free the rows.
    @pytest.mark.parametrize("scenario, ue_steps, calls", [
        (dataclasses.replace(report_tick_scenario(), sim_duration_s=0.7), None, 3),
        (corridor_scenario(), 97, 21),
    ], ids=["hex7-shadowed", "corridor-97"])
    def test_last_rows_are_freed_before_the_next_are_computed(self, monkeypatch, scenario, ue_steps, calls):
        if ue_steps is not None:
            monkeypatch.setattr(sim_module, "TRAJECTORY_BLOCK_UE_STEPS", ue_steps)
        returned, block_samples = [], RadioEnvironment.block_samples

        def tracked(env, ticks, servings):
            assert [rows() for rows in returned] == [None] * len(returned)
            rows = block_samples(env, ticks, servings)
            returned.append(weakref.ref(rows))
            return rows

        monkeypatch.setattr(RadioEnvironment, "block_samples", tracked)
        gc.disable()
        try:
            run(scenario)
        finally:
            gc.enable()
        assert len(returned) == calls

    # A call's rows live on for the block's later ticks, shadowed or not;
    # the block's last report tick drops them, with the chunk arrays the
    # suspended kernel holds, here hex50's one-tick blocks of 500 UEs.
    @pytest.mark.parametrize("scenario, alive", [
        (report_tick_scenario(), True),
        (dataclasses.replace(report_tick_scenario(), channel=ChannelParams(shadowing_sigma_db=0.0)), True),
        (Scenario(policy="fixed_a3", sim_duration_s=0.08), False),
    ], ids=["hex7-shadowed", "hex7-unshadowed", "hex50-shadowed"])
    def test_rows_live_only_while_a_later_tick_reads_them(self, monkeypatch, scenario, alive):
        returned, block_samples = [], RadioEnvironment.block_samples

        def tracked(env, ticks, servings):
            rows = block_samples(env, ticks, servings)
            returned.append(weakref.ref(rows))
            return rows

        monkeypatch.setattr(RadioEnvironment, "block_samples", tracked)
        sim = Simulation(scenario)
        gc.disable()
        try:
            sim.step()
            assert len(returned) == 1
            assert (returned[0]() is not None) == alive
        finally:
            gc.enable()

    def test_shadowed_run_frees_each_block_before_the_next(self, monkeypatch):
        # 14 UEs get 280-step trajectory blocks, so a 0.7 s run lays out
        # three; each block's last report tick drops the kernel rows, so
        # none keeps the block it was computed from alive as the next is
        # allocated.
        alive = blocks_alive_at_allocation(monkeypatch, dataclasses.replace(report_tick_scenario(), sim_duration_s=0.7))
        assert alive == [False] * 3

    def test_unshadowed_run_frees_each_block_before_the_next(self, monkeypatch):
        # hex50's 500 UEs get one-period blocks, so a 0.2 s run lays out
        # five, each read by a one-tick kernel call whose rows view the
        # block; that tick drops them before the next block is laid out.
        scenario = Scenario(policy="fixed_a3", sim_duration_s=0.2, channel=ChannelParams(shadowing_sigma_db=0.0))
        assert blocks_alive_at_allocation(monkeypatch, scenario) == [False] * 5


def blocks_alive_at_allocation(monkeypatch, scenario):
    """Run ``scenario`` without the cyclic collector and say, at each
    trajectory block's allocation, whether the block before it is alive."""
    previous, alive = [], []

    class Numpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def empty(self, shape):
            alive.extend(block() is not None for block in previous)
            return np.empty(shape)

    advance = Simulation._advance_positions

    def tracked(self):
        previous[:] = [weakref.ref(self._block)]
        advance(self)

    monkeypatch.setattr(sim_module, "np", Numpy())
    monkeypatch.setattr(Simulation, "_advance_positions", tracked)
    gc.disable()
    try:
        run(scenario)
    finally:
        gc.enable()
    return alive


class TestCrossing:
    def test_single_crossing_yields_one_successful_handover_each(self):
        scenario = noiseless_corridor(sim_duration_s=6.0, policy="fixed_a3")
        result = run(scenario)
        by_ue = {}
        for o in result.outcomes:
            by_ue.setdefault(o.ue, []).append(o)
        assert set(by_ue) == {0, 1}
        for outcomes in by_ue.values():
            assert len(outcomes) == 1
            assert outcomes[0].result == "success"
            assert not outcomes[0].ping_pong

    def test_context_owns_the_serving_cell(self):
        # UE ids index the contexts; each starts on its nearest site and
        # ends on the site it handed over to.
        sim = Simulation(noiseless_corridor(sim_duration_s=6.0, policy="fixed_a3"))
        assert [(ctx.ue, ctx.serving) for ctx in sim.contexts] == [(0, 0), (1, 1)]
        result = sim.run()
        assert sorted((o.ue, o.source, o.target) for o in result.outcomes) == [(0, 0, 1), (1, 1, 0)]
        assert [(ctx.ue, ctx.serving, ctx.last_serving) for ctx in sim.contexts] == [(0, 1, 0), (1, 0, 1)]

    def test_decision_time_matches_geometric_oracle(self):
        scenario = noiseless_corridor(sim_duration_s=6.0, policy="fixed_a3")
        sim = Simulation(scenario)
        start = np.array(sim.position(0))
        velocity = sim._velocity[0].copy()
        result = sim.run()

        # Independent oracle: recompute the measured-RSRP difference from
        # the log-distance formula at each report instant and apply the
        # hysteresis + time-to-trigger rule directly.
        ref = free_space_reference_db(scenario.radio.carrier_freq_hz)
        re_const = re_scaling_db(scenario.radio.bandwidth_hz)

        def rsrp(site_x, pos):
            d = max(math.hypot(pos[0] - site_x, pos[1]), 1.0)
            return scenario.radio.tx_power_dbm - (ref + 30.0 * math.log10(d)) - re_const

        first_satisfying = None
        decision_expected = None
        t = 0.0
        while t < 6.0:
            pos = start + velocity * t
            diff = rsrp(180.0, pos) - rsrp(0.0, pos)
            if diff > scenario.fixed_hyst_db:
                if first_satisfying is None:
                    first_satisfying = t
                if t - first_satisfying >= scenario.fixed_ttt_ms / 1e3:
                    decision_expected = t
                    break
            else:
                first_satisfying = None
            t = round(t + scenario.report_period_s, 9)

        ue0 = [o for o in result.outcomes if o.ue == 0]
        assert decision_expected is not None
        assert ue0[0].decision_time == pytest.approx(decision_expected, abs=scenario.report_period_s / 2)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        scenario = corridor_scenario(seed=11, sim_duration_s=10.0, policy="lim2")
        a = run(scenario)
        b = run(scenario)
        assert a.kpis == b.kpis
        assert a.outcomes == b.outcomes

    def test_different_seeds_differ(self):
        base = corridor_scenario(sim_duration_s=10.0, policy="lim2")
        a = run(dataclasses.replace(base, seed=1))
        b = run(dataclasses.replace(base, seed=2))
        assert a.kpis != b.kpis or a.outcomes != b.outcomes

    def test_step_halving_changes_throughput_under_one_percent(self):
        coarse = run(corridor_scenario(seed=4, sim_duration_s=20.0, step_s=0.04))
        fine = run(corridor_scenario(seed=4, sim_duration_s=20.0, step_s=0.02))
        a = coarse.kpis.mean_throughput_mbps
        b = fine.kpis.mean_throughput_mbps
        assert abs(a - b) / a < 0.01


class TestRunResult:
    def test_lim2_qtables_present(self):
        result = run(corridor_scenario(seed=0, sim_duration_s=5.0, policy="lim2"))
        assert isinstance(result.qtables, dict)

    def test_fixed_policy_has_no_qtables(self):
        result = run(corridor_scenario(seed=0, sim_duration_s=2.0, policy="fixed_a3"))
        assert result.qtables == {}

    def test_kpi_ratios_within_bounds(self):
        result = run(corridor_scenario(seed=2, sim_duration_s=10.0, policy="greedy_rsrp"))
        k = result.kpis
        assert 0.0 <= k.plr <= 1.0
        assert 0.0 <= k.ho_failure_rate <= 1.0
        assert 0.0 <= k.ping_pong_rate <= 1.0
        assert k.ho_successes + k.ho_failures == k.ho_decisions
