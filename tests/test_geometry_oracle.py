"""End-to-end oracle on the noise-free corridor, computed from geometry alone.

With no shadowing, no measurement noise and no ambient noise, every
measured RSRP on the corridor is closed-form: a UE moves along its lane at
``x0 + v*t``, folded at the box walls, and the A3 entering condition
(TS 38.331 §5.5.4.4) between serving cell s and target t reads
``10 * n * log10(d_s / d_t) > hyst``.  So the ``events.csv`` of a
``fixed_a3`` run follows from the placement alone, which is the one thing
this module reads from the simulator; everything else is plain Python:

- a decision fires at the first report tick at which the condition has
  held for the TTT, counted from the tick it started to hold;
- the execution window lasts one report period plus 50 ms (90 ms) and
  completes at the first step past it, where a success swaps the serving
  cell;
- a window fails if its serving SINR falls below -8 dB at a tick it spans,
  or if the target's RSRP at completion is below -110 dBm;
- a success back to the previous cell within 1 s of the last one is a
  ping-pong.

The site positions, too, are derived here from the scenario's spacing,
not read from the simulator's site array.
"""

import itertools
import math

import pytest

from hosim import cli
from hosim.config import load_scenario
from hosim.rl import TTT_VALUES_MS
from hosim.sim import Simulation
from corridor import CORRIDOR_INI

HEADER = "time,ue,source,target,ttt_ms,hyst_db,result,latency_ms,ping_pong"


def noise_free(ttt_ms, hyst_db, seed):
    """The ``--set`` overrides of a noise-free ``fixed_a3`` corridor run."""
    return ["channel.meas_noise_sigma_db=0", "channel.env_noise_sigma_db=0", "sim.policy=fixed_a3",
            f"sim.fixed_ttt_ms={ttt_ms}", f"sim.fixed_hyst_db={hyst_db}", f"sim.seed={seed}"]


def expected_events(scenario, start, velocity):
    """The ``events.csv`` rows of ``scenario`` from its UEs' start positions
    and velocities (lists of ``(x, y)``), in completion order."""
    sc, radio, channel = scenario, scenario.radio, scenario.channel
    sites = [i * sc.site_spacing_m for i in range(sc.n_sites)]  # on the x axis
    xmin, xmax = sites[0] - sc.boundary_margin_m, sites[-1] + sc.boundary_margin_m
    width = xmax - xmin
    tick_ms = round(sc.report_period_s * 1000)
    assert sc.step_s == sc.report_period_s and sc.ue_speed_kmh > 0
    n_ticks = round(sc.sim_duration_s / sc.step_s)
    # Each cell's wideband received power at d metres, and its RSRP: the
    # power per resource element (120 kHz subcarriers, 12 to a block).
    reference = 20 * math.log10(4 * math.pi * radio.carrier_freq_hz / 299_792_458.0)
    re_scaling = 10 * math.log10(12 * int(radio.bandwidth_hz // (12 * 120e3)))
    slope = 10 * channel.path_loss_exponent

    def wideband(d):
        return radio.tx_power_dbm - reference - slope * math.log10(d)

    def rsrp(d):
        return wideband(d) - re_scaling

    noise_mw = 10 ** ((channel.thermal_noise_density_dbm_hz + 10 * math.log10(radio.bandwidth_hz)
                       + radio.noise_figure_db) / 10)

    def distances(ue, tick):
        (x0, y0), (vx, vy) = start[ue], velocity[ue]
        assert vy == 0.0 and abs(y0) < sc.boundary_margin_m  # the lane never meets the y walls
        offset = (x0 + vx * tick * sc.step_s - xmin) % (2 * width)
        x = xmin + (offset if offset <= width else 2 * width - offset)
        return [math.hypot(x - sx, y0) for sx in sites]

    rows = []
    latency_ticks = math.ceil((tick_ms + 50) / tick_ms)  # the first step past the window
    for ue in range(len(start)):
        serving = min(range(len(sites)), key=lambda c: distances(ue, 0)[c])
        last_serving, last_ho_ms = None, -math.inf
        held_since, tick = None, 0
        while tick < n_ticks:
            d = distances(ue, tick)
            assert min(rsrp(x) for x in d) >= -125.0  # every cell is detected
            target = min((c for c in range(len(sites)) if c != serving), key=lambda c: d[c])
            if not slope * math.log10(d[serving] / d[target]) > sc.fixed_hyst_db:
                held_since, tick = None, tick + 1
                continue
            held_since = tick if held_since is None else held_since
            if (tick - held_since) * tick_ms < sc.fixed_ttt_ms:
                tick += 1
                continue
            done = tick + latency_ticks
            if done >= n_ticks:
                break
            sinrs = []
            for k in range(tick, done):
                dk = distances(ue, k)
                mw = [10 ** (wideband(x) / 10) for x in dk]
                interference = sum(m for c, m in enumerate(mw) if c != serving)
                sinrs.append(10 * math.log10(mw[serving] / (interference + noise_mw)))
            success = min(sinrs) >= -8.0 and rsrp(distances(ue, done)[target]) >= -110.0
            complete_ms = tick * tick_ms + tick_ms + 50
            ping_pong = success and target == last_serving and complete_ms - last_ho_ms < 1000
            rows.append((done, ue, f"{tick * tick_ms / 1000:.12g}", ue, serving, target, sc.fixed_ttt_ms,
                         sc.fixed_hyst_db, "success" if success else "failure", tick_ms + 50, int(ping_pong)))
            if success:
                last_serving, serving, last_ho_ms = serving, target, complete_ms
            held_since, tick = None, done
    return [",".join(map(str, row[2:])) for row in sorted(rows)]


def run_events(tmp_path, scenario_args):
    out = tmp_path / "run"
    argv = ["run", "--scenario", CORRIDOR_INI, "--out", str(out)]
    assert cli.main(argv + [arg for item in scenario_args for arg in ("--set", item)]) == 0
    return (out / "events.csv").read_text().splitlines()


def oracle_and_run(tmp_path, ttt_ms, hyst_db, seed=1):
    """The oracle's ``events.csv`` rows of a noise-free run, and the run's
    file, its header included."""
    overrides = noise_free(ttt_ms, hyst_db, seed)
    scenario = load_scenario(CORRIDOR_INI, overrides)
    sim = Simulation(scenario)
    return expected_events(scenario, sim._block[0].tolist(), sim._velocity.tolist()), run_events(tmp_path, overrides)


@pytest.mark.parametrize("ttt_ms, hyst_db, decisions", [
    (0, 0, [1.28, 1.40, 15.32, 15.44, 29.36, 29.48]),
    (256, 3, [4.08, 4.20, 18.12, 18.24, 32.16, 32.28]),
    (100, 1, None),
    (640, 2, None),
    # The corridor's largest gap between the two cells is about 3.85 dB.
    (0, 4, []),
], ids=["0ms-0dB", "256ms-3dB", "100ms-1dB", "640ms-2dB", "0ms-4dB"])
def test_noise_free_corridor_events_follow_from_geometry(tmp_path, ttt_ms, hyst_db, decisions):
    expected, events = oracle_and_run(tmp_path, ttt_ms, hyst_db)
    if decisions is None:
        assert len(expected) >= 4
    else:
        assert sorted(float(row.split(",")[0]) for row in expected) == decisions
    assert events == [HEADER, *expected]


@pytest.mark.parametrize("seed", [2, 3, 4])
def test_every_ttt_and_hysteresis_follow_from_geometry(tmp_path, seed):
    # Every TTT a policy may take, with each hysteresis from 0 dB to 5 dB
    # (at 4 dB these draws still hand over, at 5 dB none does), at three
    # more deployment draws.  Every pair whose run's rows are not the
    # oracle's is listed.
    pairs, fired = list(itertools.product(TTT_VALUES_MS, range(6))), 0
    wrong = []
    for ttt_ms, hyst_db in pairs:
        expected, events = oracle_and_run(tmp_path, ttt_ms, hyst_db, seed)
        fired += bool(expected)
        if events != [HEADER, *expected]:
            wrong.append((ttt_ms, hyst_db))
    assert wrong == []
    # Most pairs hand over at least once, so most pairs check some rows.
    assert fired > len(pairs) // 2
