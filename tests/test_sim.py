"""Scenario construction, mobility, determinism, and the step loop."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from hosim import radio
from hosim import sim as sim_module
from hosim.engine import EXECUTING, HandoverOutcome, note_execution_sinr
from hosim.metrics import MetricsAccumulator
from hosim.radio import (
    CellSite,
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
    UeTrajectory,
    _reflect,
    build_sites,
    corridor_scenario,
    place_ues,
    run,
)

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
        assert len(sites) == 50
        assert len({s.position for s in sites}) == 50
        assert [s.id for s in sites] == list(range(50))

    def test_hex_neighbor_pitch(self):
        sites = build_sites(Scenario(n_sites=7, cell_radius_m=150.0))
        center = np.array(sites[0].position)
        ring = [np.array(s.position) for s in sites[1:]]
        for pos in ring:
            assert np.linalg.norm(pos - center) == pytest.approx(math.sqrt(3) * 150.0)

    def test_corridor_row(self):
        sites = build_sites(corridor_scenario())
        assert [s.position for s in sites] == [(0.0, 0.0), (180.0, 0.0)]


class TestPlacement:
    def test_zero_ues(self):
        scenario = dataclasses.replace(Scenario(n_sites=3), n_ues_per_cell=0)
        assert place_ues(scenario, build_sites(scenario), np.random.default_rng(0)) == []

    def test_hex_placement_within_cell_radius(self):
        scenario = dataclasses.replace(Scenario(n_sites=10), n_ues_per_cell=1000)
        sites = build_sites(scenario)
        ues = place_ues(scenario, sites, np.random.default_rng(1))
        assert len(ues) == 10_000
        for ue in ues:
            site = sites[ue.ue // 1000]
            assert math.dist(ue.position, site.position) <= scenario.cell_radius_m + 1e-9

    def test_placement_deterministic_by_seed(self):
        scenario = Scenario(n_sites=5)
        sites = build_sites(scenario)
        a = place_ues(scenario, sites, np.random.default_rng(3))
        b = place_ues(scenario, sites, np.random.default_rng(3))
        assert all(np.array_equal(x.position, y.position) for x, y in zip(a, b))
        assert all(np.array_equal(x.velocity, y.velocity) for x, y in zip(a, b))

    def test_corridor_ues_head_toward_far_site(self):
        scenario = corridor_scenario(n_ues_per_cell=3)
        ues = place_ues(scenario, build_sites(scenario), np.random.default_rng(0))
        assert all(u.velocity[0] > 0 for u in ues[:3])
        assert all(u.velocity[0] < 0 for u in ues[3:])
        assert all(abs(u.position[1] - 280.0) <= 10.0 for u in ues)

    def test_corridor_ues_start_inside_at_minimum_margin(self):
        for n_sites, spacing, lane in itertools.product((2, 3, 4, 5), (1.0, 5.0, 20.0), (-40.0, 0.0, 40.0)):
            margin = max(abs(lane) + 10.0, 30.0 - spacing)
            for seed in range(5):
                scenario = corridor_scenario(n_sites=n_sites, site_spacing_m=spacing, corridor_lane_m=lane,
                                             boundary_margin_m=margin, n_ues_per_cell=20, seed=seed)
                sim = Simulation(scenario)
                xmin, xmax, ymin, ymax = sim._bounds
                assert all(xmin <= u.position[0] <= xmax and ymin <= u.position[1] <= ymax for u in sim.ues)
            with pytest.raises(ConfigError) as err:
                dataclasses.replace(scenario, boundary_margin_m=margin - 0.5).validate()
            assert err.value.field_name == "sim.boundary_margin_m"

    def test_hex_margin_must_cover_the_cell_radius(self):
        scenario = Scenario(n_sites=7, boundary_margin_m=150.0)
        sim = Simulation(scenario)
        xmin, xmax, ymin, ymax = sim._bounds
        assert all(xmin <= u.position[0] <= xmax and ymin <= u.position[1] <= ymax for u in sim.ues)
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(scenario, boundary_margin_m=149.0).validate()
        assert err.value.field_name == "sim.boundary_margin_m"

    def test_speed_magnitude_constant(self):
        scenario = Scenario(n_sites=4, ue_speed_kmh=90.0)
        ues = place_ues(scenario, build_sites(scenario), np.random.default_rng(2))
        for ue in ues:
            assert np.linalg.norm(ue.velocity) == pytest.approx(25.0)


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
        xmin, xmax, ymin, ymax = sim._bounds
        for _ in range(sim.n_steps):
            sim.step()
            for i in range(len(sim.ues)):
                x, y = sim.position(i)
                assert xmin - 1e-6 <= x <= xmax + 1e-6
                assert ymin - 1e-6 <= y <= ymax + 1e-6

    def test_steps_longer_than_the_box_stay_inside(self):
        # 111 m per step in a 59 m wide box: a step can cross both walls.
        scenario = corridor_scenario(site_spacing_m=1, corridor_lane_m=0, boundary_margin_m=29,
                                     ue_speed_kmh=1000, step_s=0.4, report_period_s=0.4)
        sim = Simulation(scenario)
        xmin, xmax, ymin, ymax = sim._bounds
        assert scenario.ue_speed_kmh / 3.6 * scenario.step_s > xmax - xmin
        for _ in range(sim.n_steps):
            sim.step()
            for i in range(len(sim.ues)):
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

    @pytest.mark.parametrize("axis, wall", [(0, 0), (0, 1), (1, 2), (1, 3)], ids=["xmin", "xmax", "ymin", "ymax"])
    def test_reflection_mirrors_only_the_crossing_axis(self, monkeypatch, axis, wall):
        scenario = noiseless_corridor()
        bounds = Simulation(scenario)._bounds
        dt = scenario.step_s
        bound = bounds[wall]
        inward = 1.0 if wall % 2 == 0 else -1.0
        # One UE one metre inside the wall, heading out at 2 m per step,
        # with a slow drift along the other axis.
        start = [(bounds[0] + bounds[1]) / 2, (bounds[2] + bounds[3]) / 2]
        start[axis] = bound + inward
        velocity = [3.0, 3.0]
        velocity[axis] = -inward * 2.0 / dt
        placed = UeTrajectory(0, tuple(start), tuple(velocity))
        monkeypatch.setattr(sim_module, "place_ues", lambda *args: [placed])
        sim = Simulation(scenario)
        assert sim.position(0) == placed.position
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
        # Sites handed over out of id order; the origin is 10 m from all three.
        sites = [CellSite(2, (10.0, 0.0)), CellSite(0, (0.0, 10.0)), CellSite(1, (-10.0, 0.0))]
        env = RadioEnvironment(sites, NOISELESS, RadioParams(), np.random.default_rng(0), np.random.default_rng(1))
        assert env.nearest_cell((0.0, 0.0)) == 0
        assert env.nearest_cell((0.0, -1.0)) == 1
        assert env.nearest_cell((0.5, -1.0)) == 2


def report_tick_scenario():
    """Seven hex sites, two UEs each; no UE is executing at the first tick."""
    return Scenario(n_sites=7, n_ues_per_cell=2, policy="fixed_a3", sim_duration_s=0.2)


class TestReportTick:
    def test_one_received_power_pass_per_ue(self, monkeypatch):
        scenario = report_tick_scenario()
        sim = Simulation(scenario)
        env = sim.env
        passes, sinrs = [], []
        row, add_sample = RadioEnvironment.row, MetricsAccumulator.add_sample

        def counted_row(self, ue, *args):
            passes.append(ue)
            return row(self, ue, *args)

        def recorded_add_sample(self, time_s, sinr_db, *args):
            sinrs.append(sinr_db)
            return add_sample(self, time_s, sinr_db, *args)

        monkeypatch.setattr(RadioEnvironment, "row", counted_row)
        monkeypatch.setattr(MetricsAccumulator, "add_sample", recorded_add_sample)
        assert all(ctx.phase != EXECUTING for ctx in sim.contexts)
        sim._report_tick(sim.time_s)
        assert passes == [ue.ue for ue in sim.ues]
        assert len(sinrs) == len(sim.ues)
        monkeypatch.undo()

        # The link budget evaluated site by site from the cached shadowing,
        # interference summed left to right in id order.
        reference_db = free_space_reference_db(scenario.radio.carrier_freq_hz)
        noise_mw = db_to_linear(
            scenario.channel.thermal_noise_density_dbm_hz
            + linear_to_db(scenario.radio.bandwidth_hz)
            + scenario.radio.noise_figure_db
        )
        for ue, ctx, value in zip(sim.ues, sim.contexts, sinrs):
            serving = ctx.serving

            def power(site):
                d = max(math.hypot(site.position[0] - ue.position[0], site.position[1] - ue.position[1]), 1.0)
                path_loss = reference_db + 10.0 * scenario.channel.path_loss_exponent * math.log10(d)
                shadowing = env.shadowing_db(site.id, ue.ue, ue.position)
                return db_to_linear(scenario.radio.tx_power_dbm - path_loss - shadowing)

            interference = 0.0
            for site in env.sites:
                if site.id != serving:
                    interference += power(site)
            assert value == linear_to_db(power(env.sites[serving]) / (interference + noise_mw))

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
        sim._report_tick(sim.time_s)
        assert calls == []


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
    xmin, xmax, ymin, ymax = bounds
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
        oracle = [[ue.position, ue.velocity] for ue in sim.ues]

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
    """Execution tracking without the skips: a full row, and the SINR it
    gives, for every executing UE at every step, report steps and windows
    that have already failed included."""

    def step(self):
        now = self.time_s
        self._complete_due_handovers(now)
        if self._step_index % self.report_every == 0:
            self._advance_positions()
            self._report_tick(now)
        for i in self._executing:
            ctx = self.contexts[i]
            row = self.env.row(i, self.position(i), ctx.serving)
            note_execution_sinr(ctx, self.env.sinr_of(row.serving_mw, row.interference_mw))
        self._step_index += 1


class TestFailedWindowSkip:
    """Windows that skip SINR passes once failed, and report steps that
    reuse the report row, against full rows at every executing step."""

    # (policy, seed) -> row passes of the 1 s run and of the full-row
    # oracle.  hex50's report ticks take the array kernel, which makes no
    # row pass, so each counted pass is an execution window's.
    ROW_PASSES = {
        ("fixed_a3", 1): (87, 3390),
        ("fixed_a3", 9001): (104, 3820),
        ("lim2", 1): (1623, 4770),
        ("lim2", 9001): (1517, 4050),
    }

    @pytest.mark.parametrize("policy, seed", sorted(ROW_PASSES))
    def test_outcomes_and_shadowing_equal_full_rows(self, monkeypatch, policy, seed):
        passes = []
        row = RadioEnvironment.row

        def counted_row(self, *args):
            passes.append(1)
            return row(self, *args)

        monkeypatch.setattr(RadioEnvironment, "row", counted_row)
        scenario = Scenario(policy=policy, seed=seed, sim_duration_s=1.0)
        sims, counts = [], []
        for cls in (Simulation, FullRowEveryStep):
            passes.clear()
            sim = cls(scenario)
            sim.run()
            sims.append(sim)
            counts.append(len(passes))
        lean, full = sims
        fields = [f.name for f in dataclasses.fields(HandoverOutcome)]
        assert len(lean.metrics.outcomes) == len(full.metrics.outcomes) > 0
        for a, b in zip(lean.metrics.outcomes, full.metrics.outcomes):
            assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]
        assert lean.env._shadow == full.env._shadow
        assert lean.env.shadow_rng.normal() == full.env.shadow_rng.normal()
        assert tuple(counts) == self.ROW_PASSES[policy, seed]


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
        start = np.array(sim.ues[0].position)
        velocity = np.array(sim.ues[0].velocity)
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
