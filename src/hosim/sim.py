"""Scenario construction, UE mobility, and the deterministic time-stepped
loop that drives reports, policies, the handover engine, and metrics.

UE trajectories do not depend on the policy, so they are laid out ahead in
blocks of whole report periods, one array path for every deployment: a
running sum of each UE's per-step travel, a UE that leaves the box folded
at its first exit.  ``position`` and a report tick only index the block,
and every position is that of moving every UE at every step, bit for bit.

A report tick takes its radio samples from ``hosim.radio``'s one report
kernel, which computes exactly the report ticks it is handed; the
simulation decides how far ahead it looks.  Without shadowing the first
report tick of a trajectory block asks for every report tick the block
holds, and each later tick reads its rows.  That is exact because at
zero sigma a tick's radio does not depend on the policy: every shadowing
value is +0.0 whatever the shadowing stream draws, trajectories are laid
out ahead, the channel noise feeds nothing else and is drawn in tick
order, and the ambient walk steps once per UE per tick.  Only the
serving split does: each row carries its SINR for the serving cell it
was computed for, so a UE whose serving cell a completion changed since
has its SINR retaken at its tick (``resplit_sinr``).  With shadowing
each tick asks for itself alone: execution windows and completions draw
from the shadowing stream between report ticks, so a tick's shadowing is
known only after its completions, and nothing draws from the stream
while its rows are read.  A tick hands the metrics its SINRs in one
call.  Between report ticks the execution windows that have not failed
take their SINR from the same link budget, as one block of (UE x site)
pairs.  A step enters each layer only when it has work: the trajectory
layout at a block's end, completions and windows while a handover
executes.

Determinism: every random quantity derives from the scenario seed via
dedicated sub-streams (placement, channel noise, shadowing, and one
stream per learning agent), so a (scenario, seed) pair fixes every
output byte and per-cell agents stay independent of each other.  So the
runs of every policy at one (speed, seed) lay out the same trajectories
and draw the same channel noise, each run computing its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from . import engine
from .engine import EXECUTING, HandoverContext, HandoverOutcome
from .metrics import KpiRecord, MetricsAccumulator
from .policies import Lim2Policy, make_policy
from .radio import ChannelParams, RadioEnvironment, RadioParams, one_of, ranged
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
# get 2,048-step blocks, hex50's 500 one 40-step report period.  Without
# shadowing one report-kernel call computes a trajectory block's ticks.
TRAJECTORY_BLOCK_UE_STEPS = 4096
# Most UE-steps one report period may span, as a trajectory block holds at
# least one: 2**22 (x, y) float pairs are 64 MiB.
MAX_REPORT_PERIOD_UE_STEPS = 2**22
# Most (UE, site) pairs a report tick's arrays, noise included, may span.
MAX_REPORT_TICK_PAIRS = 2**22

class ConfigError(ValueError):
    """Scenario validation failure; carries the offending field name."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


@dataclass(frozen=True)
class Scenario:
    """Full description of one simulation run; each field's own rule is declared on it."""

    layout: str = one_of("hex", ("hex", "corridor"))
    n_sites: int = ranged(50, 1, math.isqrt(MAX_REPORT_TICK_PAIRS))  # 2,048, the most one UE a site allows
    cell_radius_m: float = ranged(150.0, 1.0, 1e5)
    site_spacing_m: float = ranged(180.0, 1.0, 1e5)  # corridor layouts only
    corridor_lane_m: float = ranged(0.0, -1e5, 1e5)  # lateral offset of the UE lane from the site axis
    boundary_margin_m: float | None = ranged(None, 0.0, 1e5)
    n_ues_per_cell: int = ranged(10, 0, math.inf)
    ue_speed_kmh: float = ranged(200.0, 0.0, 1000.0)
    sim_duration_s: float = ranged(2.0, 0.0, 1e6)
    step_s: float = 0.001
    report_period_s: float = 0.040
    seed: int = ranged(1, 0, math.inf)
    policy: str = one_of("lim2", POLICIES)
    fixed_ttt_ms: int = one_of(256, TTT_VALUES_MS)
    fixed_hyst_db: int = one_of(3, HYST_VALUES_DB)
    radio: RadioParams = field(default_factory=RadioParams)
    channel: ChannelParams = field(default_factory=ChannelParams)
    learning: LearningParams = field(default_factory=LearningParams)

    def validate(self) -> None:
        """The one gate for a scenario; a bad field raises ConfigError naming
        its INI key: ``sim.<key>`` for a top-level field, ``<section>.<key>``
        for a nested one.  The rules declared on the fields come first; the
        rules written out here relate fields or carry reasons of their own."""
        for name, value, declared in _declared_fields(self):
            lo, hi = declared.get("range", (-math.inf, math.inf))
            if "choices" in declared:
                if value not in declared["choices"]:
                    raise ConfigError(name, f"must be one of {declared['choices']}")
            elif isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(name, "must be finite")
            elif not lo <= value <= hi:
                raise ConfigError(name, f"must be in [{_shortest(lo)}, {_shortest(hi)}]")
        for name in ("shadowing_sigma_db", "meas_noise_sigma_db", "env_noise_sigma_db"):
            # The sign bit, so that -0.0 (which numpy's normal refuses) fails too.
            if math.copysign(1.0, getattr(self.channel, name)) < 0:
                raise ConfigError(f"channel.{name}", "must be non-negative")
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
        if self.step_s <= 0:
            raise ConfigError("sim.step_s", "must be positive")
        if not math.isfinite(self.sim_duration_s / self.step_s):
            raise ConfigError("sim.step_s", "too small for sim_duration_s")
        if self.sim_duration_s < self.step_s:  # so the duration is positive too
            raise ConfigError("sim.sim_duration_s", "must be at least step_s")
        if self.report_period_s < self.step_s:
            raise ConfigError("sim.report_period_s", "must be at least step_s")
        # sim_duration_s / step_s is finite here, so an infinite ratio means
        # the report period, not the step, is out of scale.
        ratio = self.report_period_s / self.step_s
        if not math.isfinite(ratio):
            raise ConfigError("sim.report_period_s", "too large for step_s")
        if abs(ratio - round(ratio)) > 1e-9:
            raise ConfigError("sim.report_period_s", "must be an integer multiple of step_s")
        # n_sites is declared within both size bounds, so past either the
        # UEs are at fault, unless one UE's report period alone is too long,
        # or one UE a site already is too many.
        steps, n_ues = round(ratio), self.n_sites * self.n_ues_per_cell
        if steps * n_ues > MAX_REPORT_PERIOD_UE_STEPS:
            if steps > MAX_REPORT_PERIOD_UE_STEPS:
                name = "sim.step_s"
            elif steps * self.n_sites > MAX_REPORT_PERIOD_UE_STEPS:
                name = "sim.report_period_s"
            else:
                name = "sim.n_ues_per_cell"
            raise ConfigError(
                name, f"one report period of {_count(n_ues)} UEs spans {_count(steps * n_ues)} UE-steps, more than 2**22"
            )
        pairs = n_ues * self.n_sites
        if pairs > MAX_REPORT_TICK_PAIRS:
            raise ConfigError("sim.n_ues_per_cell", f"one report tick spans {_count(pairs)} UE-site pairs, more than 2**22")


def _count(n: int) -> str:
    """The count ``n`` to three significant digits, however large (``Decimal`` takes any int exactly)."""
    # Imported here, as only a rejected scenario prints a count: the module
    # would add about 0.4 MB to every run's process.
    from decimal import Decimal

    return f"{Decimal(n):.3g}"


def _shortest(value: float) -> str:
    """``value`` as ``:g`` prints it, or its repr where ``:g`` would round it
    (gamma's bound one ulp below 1)."""
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def _boundary_margin_m(scenario: Scenario) -> float:
    """The boundary's distance beyond the site bounding box; defaults to the cell radius."""
    margin = scenario.boundary_margin_m
    return scenario.cell_radius_m if margin is None else margin


def _declared_fields(obj, prefix: str = "sim."):
    """Yield (INI key, value, declaration) for every field declared with
    ``ranged`` or ``one_of``, and every other float field with an empty
    declaration: a top-level field as ``sim.<key>``, a nested dataclass's
    as ``<field>.<key>``.  A None value (the margin's default) is skipped."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from _declared_fields(value, f"{f.name}.")
        elif value is not None and (f.metadata or isinstance(value, float)):
            yield prefix + f.name, value, f.metadata


def build_sites(scenario: Scenario) -> np.ndarray:
    """Site layout, an (n_sites x 2) array whose row i is site i's ``(x,
    y)``: a hexagonal grid for 'hex', a row along the x axis for 'corridor'."""
    if scenario.layout == "corridor":
        positions = [(i * scenario.site_spacing_m, 0.0) for i in range(scenario.n_sites)]
    else:
        positions = _hex_positions(scenario.n_sites, math.sqrt(3.0) * scenario.cell_radius_m)
    return np.array(positions, float).reshape(-1, 2)


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


def place_ues(scenario: Scenario, sites: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray]:
    """Scatter UEs around their sites (``build_sites``' array): every UE's
    start position and constant velocity, as two (n_ues x 2) arrays in UE
    id order, site 0's UEs first.

    Hex layouts draw a radially decaying scatter (exponential radius
    with mean radius/2, clamped to the cell radius, uniform angle) and
    uniform headings.  Corridor layouts start each site's UEs just
    beside it heading toward the far end of the row, so every UE crosses
    the cell boundary.
    """
    speed = scenario.ue_speed_kmh / 3.6
    positions, velocities = [], []
    rows = sites.tolist()
    for cid, (sx, sy) in enumerate(rows):
        for _ in range(scenario.n_ues_per_cell):
            if scenario.layout == "corridor":
                direction = 1.0 if sx <= rows[len(rows) // 2][0] else -1.0
                if scenario.n_sites == 2:
                    direction = 1.0 if cid == 0 else -1.0
                offset = float(rng.uniform(*CORRIDOR_OFFSET_M))
                y = scenario.corridor_lane_m + float(rng.uniform(-CORRIDOR_LANE_JITTER_M, CORRIDOR_LANE_JITTER_M))
                position = (sx + direction * offset, y)
                velocity = (direction * speed, 0.0)
            else:
                radius = min(float(rng.exponential(scenario.cell_radius_m / 2.0)), scenario.cell_radius_m)
                angle = float(rng.uniform(0.0, 2.0 * math.pi))
                heading = float(rng.uniform(0.0, 2.0 * math.pi))
                position = (sx + radius * math.cos(angle), sy + radius * math.sin(angle))
                velocity = (speed * math.cos(heading), speed * math.sin(heading))
            positions.append(position)
            velocities.append(velocity)
    return np.array(positions, float).reshape(-1, 2), np.array(velocities, float).reshape(-1, 2)


@dataclass
class RunResult:
    scenario: Scenario
    kpis: KpiRecord
    outcomes: list[HandoverOutcome]
    qtables: dict
    plr_starts_s: tuple[float, ...]  # start time of each kpis.plr_series bucket


class Simulation:
    """One seeded, single-threaded run of a scenario.  Its UEs start where
    ``place_ues`` puts them, each on the nearest site that
    ``RadioEnvironment.nearest_cell`` finds for all of them in one pass of
    the report kernel's distance rule.  It holds the kernel's rows not
    read yet, each with the serving cell it was computed for: without
    shadowing the rest of the trajectory block's report ticks, with
    shadowing this tick's alone (the module docstring says why both are
    exact).  It drops them when it lays out the next trajectory block, or
    once a shadowed tick has read them, so it holds one set of rows and
    one trajectory block at a time."""

    def __init__(self, scenario: Scenario):
        scenario.validate()
        self.scenario = scenario
        sites = build_sites(scenario)
        setup_rng = np.random.default_rng([scenario.seed, _SETUP_STREAM])
        channel_rng = np.random.default_rng([scenario.seed, _CHANNEL_STREAM])
        shadow_rng = np.random.default_rng([scenario.seed, _SHADOW_STREAM])
        self.env = RadioEnvironment(sites, scenario.channel, scenario.radio, channel_rng, shadow_rng)
        start, self._velocity = place_ues(scenario, sites, setup_rng)
        self.policy = make_policy(scenario)
        # UE ids are 0..n-1 and index these lists; each UE starts on its nearest site.
        self._nearest = self.env.nearest_cell(start)
        self.contexts = [HandoverContext(ue, cell) for ue, cell in enumerate(self._nearest)]
        self.metrics = MetricsAccumulator(
            n_ues=len(start), duration_s=scenario.sim_duration_s, bandwidth_hz=scenario.radio.bandwidth_hz
        )
        self.report_every = round(scenario.report_period_s / scenario.step_s)
        self.n_steps = round(scenario.sim_duration_s / scenario.step_s)
        # The box's lower and upper corners: the sites' bounding box widened by the margin.
        margin = _boundary_margin_m(scenario)
        self._bounds = np.array([sites.min(axis=0) - margin, sites.max(axis=0) + margin])
        self._step_index = 0
        # Every UE's (x, y) at each step of the current trajectory block,
        # from step ``_block_start`` on; ``_velocity`` holds each UE's
        # velocity at the block's last step, which starts the next block.
        # Before the first block is laid out the block is the placement alone.
        self._block = start[None]
        self._block_start = 0
        periods = TRAJECTORY_BLOCK_UE_STEPS // (max(1, len(start)) * self.report_every)
        self._block_steps = max(1, periods) * self.report_every
        self._shadowed = scenario.channel.shadowing_sigma_db > 0
        self._rows = None
        # Ids of the UEs whose handover is executing, ascending.  Only a
        # report tick starts an execution and only a completion ends one.
        self._executing: list[int] = []

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
        """One tick: lay out the next trajectory block where the current one
        ends; then complete due handovers, then either emit reports or track
        the execution windows.  Each layer is entered only when it has
        work: the layout at a block's end, completions and windows while a
        handover executes."""
        now = self.time_s
        if self._step_index == self._block_start + len(self._block) - 1:
            self._advance_positions()
        if self._executing:
            self._complete_due_handovers(now)
        if self._step_index % self.report_every == 0:
            self._report_tick(now)
        elif self._executing:
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
                self.metrics.outcomes.append(engine.complete_handover(ctx, now, target_rsrp))
            else:
                still_executing.append(i)
        self._executing = still_executing

    def _report_tick(self, now: float) -> None:
        # Only a handover's completion changes ctx.serving, so the serving
        # cell read at a UE's row is the one its SINR is taken for: the
        # row's own, or retaken where a completion changed it since the
        # rows were computed.  An executing window's sample at this step is
        # the report's SINR; an executing UE's report moves no phase, so
        # the engine does not see it.
        env, policy, metrics, nearest = self.env, self.policy, self.metrics, self._nearest
        generate_report, observe, on_report = env.generate_report, policy.observe, engine.on_measurement_report
        period = self.scenario.report_period_s
        tick = self._step_index - self._block_start
        if tick == 0 or self._shadowed:
            # The trajectory block's report ticks from this one on, or this one alone.
            stop = tick + 1 if self._shadowed else -1
            servings = [ctx.serving for ctx in self.contexts]
            self._rows = env.block_samples(self._block[tick:stop:self.report_every], servings)
        executing, sinrs, attached = [], [], []
        # ``contexts`` comes first, so a tick takes exactly its own rows.
        for i, (ctx, row) in enumerate(zip(self.contexts, self._rows)):
            sample, serving = row[0], ctx.serving
            report = generate_report(i, sample, serving, now)
            levels = observe(report)
            if ctx.phase != EXECUTING:
                on_report(ctx, report, levels, policy, now, period)
            sinr_db = sample.sinr_db if serving == sample.serving else env.resplit_sinr(row, serving)
            sinrs.append(sinr_db)
            on_cell = ctx.phase != EXECUTING
            attached.append(on_cell)
            if not on_cell:
                executing.append(i)
                engine.note_execution_sinr(ctx, sinr_db)
            if sample.nearest != nearest[i]:
                nearest[i] = sample.nearest
                metrics.crossings += 1
        metrics.add_sample(now, sinrs, attached)
        self._executing = executing
        if self._shadowed:  # every row is read, but zip left the kernel suspended holding them
            self._rows = None

    def _track_execution_sinr(self) -> None:
        """Sample each executing window's SINR between report ticks.  Every
        executing UE's shadowing is refreshed first, in id order, which
        keeps ``shadow_rng``'s order.  A window that has dipped below Qout
        has failed and tracks nothing more; the others take their serving
        and interference powers as one block of the radio's link budget."""
        executing = self._executing
        env, contexts = self.env, self.contexts
        xy = self._block[self._step_index - self._block_start, executing]
        shadowing = list(map(env.refresh_shadowing, executing, map(tuple, xy.tolist())))
        live = [k for k, i in enumerate(executing) if not contexts[i].exec_failed]
        if not live:
            return
        windows = [contexts[executing[k]] for k in live]
        # The live windows' rows, one UE each, copied into one array.
        powers = env.window_powers(xy[live], [ctx.serving for ctx in windows], np.array([shadowing[k] for k in live]))
        for ctx, (serving_mw, interference_mw) in zip(windows, powers):
            engine.note_execution_sinr(ctx, env.sinr_of(serving_mw, interference_mw))

    def _advance_positions(self) -> None:
        """Lay out the next trajectory block at the step where the current
        one ends; the next block starts from its last row, which is copied
        so the current block is freed before the next is allocated.  The
        kernel rows not read yet are dropped first, as they may hold a view
        of the current block; the next block's first report tick asks for
        fresh rows anyway.

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
        start = self._step_index
        self._rows = None
        lo, hi = self._bounds
        (xmin, ymin), (xmax, ymax) = self._bounds.tolist()
        dt = self.scenario.step_s
        last, self._block = self._block[-1].copy(), None
        block = np.empty((min(self._block_steps, self.n_steps - start) + 1, *self._velocity.shape))
        block[0] = last
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
