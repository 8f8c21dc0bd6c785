"""Scenario construction, UE mobility, and the deterministic time-stepped
loop that drives reports, policies, the handover engine, and metrics.

UE trajectories do not depend on the policy, so they are laid out ahead in
blocks of whole report periods, one array path for every deployment: a
running sum of each UE's per-step travel, a UE that leaves the box folded
at its first exit.  ``position`` and a report tick only index the block,
and every position is that of moving every UE at every step, bit for bit.

Determinism: every random quantity derives from the scenario seed via
dedicated sub-streams (placement, channel noise, shadowing, and one
stream per learning agent), so a (scenario, seed) pair fixes every
output byte and per-cell agents stay independent of each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from . import engine
from .engine import EXECUTING, HandoverContext, HandoverOutcome
from .metrics import KpiRecord, MetricsAccumulator
from .policies import Lim2Policy, make_policy
from .radio import CellSite, ChannelParams, RadioEnvironment, RadioParams, ranged
from .rl import HYST_VALUES_DB, TTT_VALUES_MS, LearningParams

POLICIES = ("lim2", "fixed_a3", "greedy_rsrp")
SPEED_SET_KMH = (50, 100, 150, 200, 250, 300, 350)

_SETUP_STREAM = 0
_CHANNEL_STREAM = 1
_SHADOW_STREAM = 3

# Corridor UEs start this far along the row from their site, heading away
# from it, and this far either side of the lane.
CORRIDOR_OFFSET_M = (10.0, 30.0)
CORRIDOR_LANE_JITTER_M = 10.0
# Most UE-steps one trajectory block holds, unless one report period of
# every UE needs more: 4,096 (x, y) float pairs are 64 KiB, which bounds
# the block's memory whatever the deployment's size.  The corridor's 2 UEs
# get 2,048-step blocks, hex50's 500 one 40-step report period.
TRAJECTORY_BLOCK_UE_STEPS = 4096

class ConfigError(ValueError):
    """Scenario validation failure; carries the offending field name."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


@dataclass(frozen=True)
class Scenario:
    """Full description of one simulation run."""

    layout: str = "hex"
    n_sites: int = 50
    cell_radius_m: float = ranged(150.0, 1.0, 1e5)
    site_spacing_m: float = ranged(180.0, 1.0, 1e5)  # corridor layouts only
    corridor_lane_m: float = ranged(0.0, -1e5, 1e5)  # lateral offset of the UE lane from the site axis
    boundary_margin_m: float | None = ranged(None, 0.0, 1e5)
    n_ues_per_cell: int = 10
    ue_speed_kmh: float = ranged(200.0, 0.0, 1000.0)
    sim_duration_s: float = ranged(2.0, 0.0, 1e6)
    step_s: float = 0.001
    report_period_s: float = 0.040
    seed: int = 1
    policy: str = "lim2"
    fixed_ttt_ms: int = 256
    fixed_hyst_db: int = 3
    radio: RadioParams = field(default_factory=RadioParams)
    channel: ChannelParams = field(default_factory=ChannelParams)
    learning: LearningParams = field(default_factory=LearningParams)

    def validate(self) -> None:
        """The one gate for a scenario; a bad field raises ConfigError naming
        its INI key: ``sim.<key>`` for a top-level field, ``<section>.<key>``
        for a nested one."""
        for name, value, (lo, hi) in _float_fields(self):
            if not math.isfinite(value):
                raise ConfigError(name, "must be finite")
            if not lo <= value <= hi:
                raise ConfigError(name, f"must be in [{_shortest(lo)}, {_shortest(hi)}]")
        for name in ("shadowing_sigma_db", "meas_noise_sigma_db", "env_noise_sigma_db"):
            # The sign bit, so that -0.0 (which numpy's normal refuses) fails too.
            if math.copysign(1.0, getattr(self.channel, name)) < 0:
                raise ConfigError(f"channel.{name}", "must be non-negative")
        if self.layout not in ("hex", "corridor"):
            raise ConfigError("sim.layout", f"unknown layout {self.layout!r}")
        if self.n_sites < 1:
            raise ConfigError("sim.n_sites", "need at least one site")
        if self.layout == "corridor" and self.n_sites < 2:
            raise ConfigError("sim.n_sites", "corridor layout needs at least two sites")
        # Every UE must start inside the deployment boundary, or its first
        # step mirrors it across the wall.
        if self.layout == "hex":
            need = self.cell_radius_m
        else:
            need = max(abs(self.corridor_lane_m) + CORRIDOR_LANE_JITTER_M, CORRIDOR_OFFSET_M[1] - self.site_spacing_m)
        if _boundary_margin_m(self) < need:
            raise ConfigError("sim.boundary_margin_m", f"must be at least {need:g} m so every UE starts inside")
        if self.sim_duration_s <= 0:
            raise ConfigError("sim.sim_duration_s", "must be positive")
        if self.step_s <= 0:
            raise ConfigError("sim.step_s", "must be positive")
        if not math.isfinite(self.sim_duration_s / self.step_s):
            raise ConfigError("sim.step_s", "too small for sim_duration_s")
        if self.sim_duration_s < self.step_s:
            raise ConfigError("sim.sim_duration_s", "must be at least step_s")
        if self.report_period_s < self.step_s:
            raise ConfigError("sim.report_period_s", "must be at least step_s")
        ratio = self.report_period_s / self.step_s
        if not math.isfinite(ratio):
            raise ConfigError("sim.step_s", "too small for report_period_s")
        if abs(ratio - round(ratio)) > 1e-9:
            raise ConfigError("sim.report_period_s", "must be an integer multiple of step_s")
        if self.n_ues_per_cell < 0:
            raise ConfigError("sim.n_ues_per_cell", "must be non-negative")
        if self.policy not in POLICIES:
            raise ConfigError("sim.policy", f"must be one of {POLICIES}")
        if self.seed < 0:
            raise ConfigError("sim.seed", "must be non-negative")
        if self.fixed_ttt_ms not in TTT_VALUES_MS:
            raise ConfigError("sim.fixed_ttt_ms", f"must be one of {TTT_VALUES_MS}")
        if self.fixed_hyst_db not in HYST_VALUES_DB:
            raise ConfigError("sim.fixed_hyst_db", "must be an integer in 0..30")


def _shortest(value: float) -> str:
    """``value`` as ``:g`` prints it, or its repr where ``:g`` would round it
    (gamma's bound one ulp below 1)."""
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def _boundary_margin_m(scenario: Scenario) -> float:
    """The boundary's distance beyond the site bounding box; defaults to the cell radius."""
    margin = scenario.boundary_margin_m
    return scenario.cell_radius_m if margin is None else margin


def _float_fields(obj, prefix: str = "sim."):
    """Yield (INI key, value, inclusive range) for every float field: a
    top-level field as ``sim.<key>``, a nested dataclass's as
    ``<field>.<key>``, the section it has in a scenario file.  A field
    declared without ``ranged`` is unbounded."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from _float_fields(value, f"{f.name}.")
        elif isinstance(value, float):
            yield prefix + f.name, value, f.metadata.get("range", (-math.inf, math.inf))


def corridor_scenario(**overrides) -> Scenario:
    """Two-cell crossing corridor used for end-to-end comparisons.

    Mid-band carrier and zero shadowing keep the corridor fully covered,
    so policy differences come from decision timing rather than from
    coverage holes; the 2 dB measurement noise still perturbs what the
    policies see.  The UE lane runs 280 m off the site axis, which caps
    the serving-to-interferer distance ratio: even a very late handover
    sags to about -4 dB SINR, degrading throughput without tripping the
    loss threshold or the outage-based failure checks.
    """
    base = dict(
        layout="corridor",
        n_sites=2,
        site_spacing_m=180.0,
        corridor_lane_m=280.0,
        boundary_margin_m=300.0,
        cell_radius_m=150.0,
        n_ues_per_cell=1,
        ue_speed_kmh=200.0,
        sim_duration_s=40.0,
        step_s=0.04,
        report_period_s=0.04,
        radio=RadioParams(carrier_freq_hz=3.5e9, bandwidth_hz=100e6),
        channel=ChannelParams(shadowing_sigma_db=0.0),
    )
    base.update(overrides)
    return Scenario(**base)


def build_sites(scenario: Scenario) -> list[CellSite]:
    """Site layout: hexagonal grid for 'hex', a row for 'corridor'."""
    if scenario.layout == "corridor":
        positions = [(i * scenario.site_spacing_m, 0.0) for i in range(scenario.n_sites)]
    else:
        positions = _hex_positions(scenario.n_sites, math.sqrt(3.0) * scenario.cell_radius_m)
    return [CellSite(i, pos) for i, pos in enumerate(positions)]


def _hex_positions(n: int, pitch: float) -> list[tuple[float, float]]:
    """First n points of a hexagonal lattice spiral around the origin."""
    positions = [(0.0, 0.0)]
    ring = 1
    while len(positions) < n:
        # Walk the six edges of the ring starting from its east corner.
        q, r = ring, 0
        directions = ((-1, 1), (-1, 0), (0, -1), (1, -1), (1, 0), (0, 1))
        for dq, dr in directions:
            for _ in range(ring):
                if len(positions) >= n:
                    break
                x = pitch * (q + r / 2.0)
                y = pitch * (math.sqrt(3.0) / 2.0) * r
                positions.append((x, y))
                q, r = q + dq, r + dr
        ring += 1
    return positions[:n]


@dataclass(frozen=True)
class UeTrajectory:
    """A UE's placement: its start and its constant velocity, ``(x, y)``
    float tuples.  ``Simulation.position`` gives where it is at the run's
    current step, walls folded in."""

    ue: int
    position: tuple[float, float]
    velocity: tuple[float, float]


def place_ues(scenario: Scenario, sites: list[CellSite], rng) -> list[UeTrajectory]:
    """Scatter UEs around their sites.

    Hex layouts draw a radially decaying scatter (exponential radius
    with mean radius/2, clamped to the cell radius, uniform angle) and
    uniform headings.  Corridor layouts start each site's UEs just
    beside it heading toward the far end of the row, so every UE crosses
    the cell boundary.
    """
    speed = scenario.ue_speed_kmh / 3.6
    ues: list[UeTrajectory] = []
    for site in sites:
        for _ in range(scenario.n_ues_per_cell):
            uid = len(ues)
            if scenario.layout == "corridor":
                direction = 1.0 if site.position[0] <= sites[len(sites) // 2].position[0] else -1.0
                if scenario.n_sites == 2:
                    direction = 1.0 if site.id == 0 else -1.0
                offset = float(rng.uniform(*CORRIDOR_OFFSET_M))
                y = scenario.corridor_lane_m + float(rng.uniform(-CORRIDOR_LANE_JITTER_M, CORRIDOR_LANE_JITTER_M))
                position = (site.position[0] + direction * offset, y)
                velocity = (direction * speed, 0.0)
            else:
                radius = min(float(rng.exponential(scenario.cell_radius_m / 2.0)), scenario.cell_radius_m)
                angle = float(rng.uniform(0.0, 2.0 * math.pi))
                heading = float(rng.uniform(0.0, 2.0 * math.pi))
                position = (site.position[0] + radius * math.cos(angle), site.position[1] + radius * math.sin(angle))
                velocity = (speed * math.cos(heading), speed * math.sin(heading))
            ues.append(UeTrajectory(uid, position, velocity))
    return ues


@dataclass
class RunResult:
    scenario: Scenario
    kpis: KpiRecord
    outcomes: list[HandoverOutcome]
    qtables: dict
    plr_starts_s: tuple[float, ...]  # start time of each kpis.plr_series bucket


class Simulation:
    """One seeded, single-threaded run of a scenario."""

    def __init__(self, scenario: Scenario):
        scenario.validate()
        self.scenario = scenario
        sites = build_sites(scenario)
        setup_rng = np.random.default_rng([scenario.seed, _SETUP_STREAM])
        channel_rng = np.random.default_rng([scenario.seed, _CHANNEL_STREAM])
        shadow_rng = np.random.default_rng([scenario.seed, _SHADOW_STREAM])
        self.env = RadioEnvironment(sites, scenario.channel, scenario.radio, channel_rng, shadow_rng)
        self.ues = place_ues(scenario, sites, setup_rng)
        self.policy = make_policy(
            scenario.policy,
            seed=scenario.seed,
            learning=scenario.learning,
            fixed_ttt_ms=scenario.fixed_ttt_ms,
            fixed_hyst_db=scenario.fixed_hyst_db,
        )
        # UE ids are 0..n-1, so they index these lists as they do self.ues.
        self._nearest = [self.env.nearest_cell(ue.position) for ue in self.ues]
        self.contexts = [HandoverContext(ue.ue, cell) for ue, cell in zip(self.ues, self._nearest)]
        self.metrics = MetricsAccumulator(n_ues=len(self.ues), duration_s=scenario.sim_duration_s)
        self.report_every = round(scenario.report_period_s / scenario.step_s)
        self.n_steps = round(scenario.sim_duration_s / scenario.step_s)
        self._bounds = self._deployment_bounds(sites)
        self._step_index = 0
        # Every UE's (x, y) at each step of the current trajectory block,
        # from step ``_block_start`` on, and each UE's velocity at the
        # block's last step, which starts the next block.  Before the first
        # block is laid out the block is the placement alone.
        self._block = np.array([ue.position for ue in self.ues]).reshape(1, -1, 2)
        self._velocity = np.array([ue.velocity for ue in self.ues]).reshape(-1, 2)
        self._block_start = 0
        periods = TRAJECTORY_BLOCK_UE_STEPS // (max(1, len(self.ues)) * self.report_every)
        self._block_steps = max(1, periods) * self.report_every
        # Ids of the UEs whose handover is executing, ascending.  Only a
        # report tick starts an execution and only a completion ends one.
        self._executing: list[int] = []
        # Every report tick has the same (UE x site) pairs, so one kernel.
        self._array_pass = self.env.array_pass(len(self.ues))

    def _deployment_bounds(self, sites) -> tuple[float, float, float, float]:
        margin = _boundary_margin_m(self.scenario)
        xs = [s.position[0] for s in sites]
        ys = [s.position[1] for s in sites]
        return (min(xs) - margin, max(xs) + margin, min(ys) - margin, max(ys) + margin)

    @property
    def time_s(self) -> float:
        return self._step_index * self.scenario.step_s

    def run(self) -> RunResult:
        for _ in range(self.n_steps):
            self.step()
        qtables = self.policy.qtables() if isinstance(self.policy, Lim2Policy) else {}
        return RunResult(
            self.scenario, self.metrics.finalize(), self.metrics.outcomes, qtables, self.metrics.plr_starts_s()
        )

    def step(self) -> None:
        """One tick: a report step first lays out the next trajectory block
        where the current one ends; then complete due handovers, then either
        emit reports or track the execution windows."""
        now = self.time_s
        report_step = self._step_index % self.report_every == 0
        if report_step:
            self._advance_positions()
        self._complete_due_handovers(now)
        if report_step:
            self._report_tick(now)
        else:
            self._track_execution_sinr()
        self._step_index += 1

    def position(self, ue: int) -> tuple[float, float]:
        """UE ``ue``'s position at the current step, as an ``(x, y)`` tuple."""
        x, y = self._block[self._step_index - self._block_start, ue].tolist()
        return x, y

    def _complete_due_handovers(self, now: float) -> None:
        still_executing = []
        for i in self._executing:
            ctx = self.contexts[i]
            if now >= ctx.exec_deadline - 1e-9:
                target_rsrp = self.env.true_rsrp_of(ctx.target, i, self.position(i))
                self.metrics.add_outcome(engine.complete_handover(ctx, now, target_rsrp))
            else:
                still_executing.append(i)
        self._executing = still_executing

    def _report_tick(self, now: float) -> None:
        # Only a handover's completion changes ctx.serving, so the serving
        # cells read before the samples stay those each SINR is taken for.
        # An executing window's sample at this step is the report's SINR.
        env, policy, metrics = self.env, self.policy, self.metrics
        period, bandwidth = self.scenario.report_period_s, self.scenario.radio.bandwidth_hz
        positions = list(map(tuple, self._block[self._step_index - self._block_start].tolist()))
        executing = []
        # The array kernel yields every UE's sample; the scalar one is called
        # on each UE's draws directly, which costs less than an iterator.
        array_pass = self._array_pass
        if array_pass:
            per_ue = env.array_samples(positions, [ctx.serving for ctx in self.contexts])
        else:
            per_ue = env.channel_noise(len(self.ues))
        for i, (position, ctx, item) in enumerate(zip(positions, self.contexts, per_ue)):
            sample = item if array_pass else env.sample(i, position, ctx.serving, item)
            report = env.generate_report(i, sample, ctx.serving, now)
            levels = policy.observe(report)
            engine.on_measurement_report(ctx, report, levels, policy, now, period)
            sinr_db = env.sinr_of(sample.serving_mw, sample.interference_mw)
            attached = ctx.phase != EXECUTING
            if not attached:
                executing.append(i)
                engine.note_execution_sinr(ctx, sinr_db)
            metrics.add_sample(now, sinr_db, bandwidth, attached)
            if sample.nearest != self._nearest[i]:
                self._nearest[i] = sample.nearest
                metrics.add_crossing()
        self._executing = executing

    def _track_execution_sinr(self) -> None:
        """Sample each executing window's SINR between report ticks.  A
        window that has dipped below Qout has failed, so it only keeps its
        shadowing up to date, which keeps ``shadow_rng``'s order."""
        env = self.env
        for i in self._executing:
            ctx = self.contexts[i]
            position = self.position(i)
            if ctx.exec_failed:
                env.refresh_shadowing(i, position)
            else:
                row = env.row(i, position, ctx.serving)
                engine.note_execution_sinr(ctx, env.sinr_of(row.serving_mw, row.interference_mw))

    def _advance_positions(self) -> None:
        """Lay out the next trajectory block if the current one ends at this
        step; the next block starts from its last row.

        A block covers as many whole report periods as fit in
        ``TRAJECTORY_BLOCK_UE_STEPS`` (at least one), clipped at the run's
        end.  Each UE's path is its start plus its per-step travel ``v *
        dt``, summed in step order by ``np.add.accumulate``: the IEEE adds
        of ``x += vx * dt`` taken one step at a time.  A UE that leaves the
        box folds through the scalar ``_reflect`` at its first exit row,
        both axes as one step's fold takes them, and its column is summed
        again from there with the velocity the fold leaves.  So positions,
        velocities and fold points are those of moving every UE at every
        step, bit for bit."""
        start = self._block_start + len(self._block) - 1
        if self._step_index != start:
            return
        xmin, xmax, ymin, ymax = self._bounds
        lo, hi = np.array([xmin, ymin]), np.array([xmax, ymax])
        dt = self.scenario.step_s
        block = np.empty((min(self._block_steps, self.n_steps - start) + 1, *self._velocity.shape))
        block[0] = self._block[-1]
        block[1:] = self._velocity * dt
        np.add.accumulate(block, axis=0, out=block)
        # A UE leaves the box in this block iff its lowest or highest
        # coordinate does.
        leaving = (block[1:].min(axis=0) < lo) | (block[1:].max(axis=0) > hi)
        for i in np.flatnonzero(leaving.any(axis=1)).tolist():
            path, velocity = block[:, i], self._velocity[i]
            k = 1
            outside = ((path[1:] < lo) | (path[1:] > hi)).any(axis=1)
            while outside.any():
                k += int(outside.argmax())
                (x, y), (vx, vy) = path[k].tolist(), velocity.tolist()
                x, vx = _reflect(x, vx, xmin, xmax)
                y, vy = _reflect(y, vy, ymin, ymax)
                path[k], velocity[:] = (x, y), (vx, vy)
                path[k + 1 :] = velocity * dt
                np.add.accumulate(path[k:], axis=0, out=path[k:])
                k += 1
                outside = ((path[k:] < lo) | (path[k:] > hi)).any(axis=1)
        self._block, self._block_start = block, start


def _reflect(p: float, v: float, lo: float, hi: float) -> tuple[float, float]:
    """Fold a coordinate back inside [lo, hi], mirroring it at each wall it
    crossed and reversing the velocity at each mirror."""
    if lo <= p <= hi:
        return p, v
    p, v = (2 * lo - p, -v) if p < lo else (2 * hi - p, -v)
    if lo <= p <= hi:
        return p, v
    # A step longer than the box is wide crosses more walls: the mirrored
    # path repeats every two widths and runs backward in its second half.
    width = hi - lo
    offset = (p - lo) % (2 * width)
    if offset > width:
        offset, v = 2 * width - offset, -v
    return min(lo + offset, hi), v


def run(scenario: Scenario) -> RunResult:
    """Validate and execute one scenario."""
    return Simulation(scenario).run()
