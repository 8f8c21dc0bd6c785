"""Byte-identity gate: sha256 of every output a run writes.

Each case runs one (scenario, policy, seed) and hashes the formatted
``kpi_row``, the ``event_row``s, the per-second PLR series and, for
lim2, the ``qtable_rows``, exactly as the CLI would write them.  The
CLI's 12 significant digits hide a last-bit drift that flips no
decision, so a few cases also hash the exact bits of every KPI float
(``kpi_bits``) and of every SINR the run takes (``sinr_bits``): a KPI
averages thousands of samples, which absorbs most samples' last bits.
A refactor that is meant to keep the outputs must keep these digests; a
change that moves one must say why and re-record it.
"""

import hashlib
import os
from dataclasses import fields

import pytest

from hosim import cli, config, kalman, metrics, radio, sim
from hosim.rl import qtable_rows
from hosim.sim import Simulation
from scalar_oracle import oracle_samples, oracle_window_sinrs

SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def _digest(rows) -> str:
    text = "\n".join(",".join(metrics.format_value(v) for v in row) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def _bits(floats) -> str:
    return hashlib.sha256("\n".join(map(float.hex, floats)).encode()).hexdigest()


def kpi_bits(kpis: metrics.KpiRecord) -> str:
    """sha256 of ``float.hex`` of every float of ``kpis``, in field order,
    then of each bucket of its PLR series."""
    floats = [v for v in (getattr(kpis, f.name) for f in fields(kpis)) if isinstance(v, float)]
    return _bits(floats + list(kpis.plr_series))


def run_digests(ini: str, overrides: list[str], bits: bool = False) -> dict[str, str]:
    scenario = config.load_scenario(os.path.join(SCENARIOS, ini), overrides)
    simulation, sinrs = Simulation(scenario), []
    if bits:
        window_sinrs, add_sample = simulation.env.window_sinrs, simulation.metrics.add_sample

        def recorded_windows(*args):
            taken = window_sinrs(*args)
            sinrs.extend(taken)
            return taken

        def recorded_samples(time_s, sinr_db, attached):
            sinrs.extend(sinr_db)
            return add_sample(time_s, sinr_db, attached)

        # Execution windows take their SINRs from window_sinrs, report ticks
        # hand theirs to the metrics.
        simulation.env.window_sinrs = recorded_windows
        simulation.metrics.add_sample = recorded_samples
    result = simulation.run()
    out = {
        "kpis": _digest([metrics.kpi_row(scenario.policy, scenario.seed, scenario.ue_speed_kmh, result.kpis)]),
        "events": _digest(metrics.event_row(o) for o in result.outcomes),
        "plr_series": _digest([result.kpis.plr_series]),
    }
    if scenario.policy == "lim2":
        out["qtables"] = _digest(qtable_rows(result.qtables))
    if bits:
        out["kpi_bits"] = kpi_bits(result.kpis)
        out["sinr_bits"] = _bits(sinrs)
    return out


def assert_golden(case: str) -> None:
    ini, overrides, expected = GOLDEN[case]
    assert run_digests(ini, overrides, "kpi_bits" in expected) == expected


HEX_SHORT = ["sim.sim_duration_s=0.2"]
# The hex50_fixed_a3 benchmark workload's run: 11 handovers at seed 1, where
# the 0.2 s run completes none.
HEX_BENCH = ["sim.sim_duration_s=0.4"]
# 1 s runs complete dozens of handovers at seed 1 (35 under fixed_a3, 49
# under lim2, 686 under greedy_rsrp), with SINR failures, access-floor
# failures and successes, so they cover execution windows that fail as well
# as ones that succeed; greedy_rsrp runs the most windows.
HEX_1S = ["sim.sim_duration_s=1"]
# 19 single-UE cells at 350 km/h for 13 s: UEs cross several cells, so
# streams they stop reporting go idle for more than the eviction window.
HEX_EVICTION = [
    "sim.n_sites=19", "sim.n_ues_per_cell=1", "sim.step_s=0.04", "sim.report_period_s=0.04",
    "sim.sim_duration_s=13", "sim.ue_speed_kmh=350",
]
# The corridor at a 10 ms step: three execution-window steps run between
# report ticks (88 handovers at seed 1).
CORRIDOR_FINE = ["sim.step_s=0.01", "sim.sim_duration_s=10"]
# Five corridor sites, three UEs each, at 350 km/h: serving cells change
# between report ticks far apart, and 205 of 253 handovers fail at seed 1.
CORRIDOR_5X3 = ["sim.n_sites=5", "sim.n_ues_per_cell=3", "sim.ue_speed_kmh=350", "sim.sim_duration_s=20"]

# case -> (scenario file, overrides, digests), recorded before the Kalman
# streams kept only their estimate; kpi_bits, sinr_bits and
# hex50-fixed_a3-0.4s-1 were recorded before a sweep's runs shared a
# radio, and held through the sharing's removal.
GOLDEN = {
    "corridor-lim2-1": ("corridor.ini", ["sim.policy=lim2", "sim.seed=1"], {
        "kpis": "e0b4ac5ebb38c6c04c8ab83213860604deedb63c7ef9b3fa69cf4e417a44dbb9",
        "events": "141822399d22597cbdad1af327f324bf49d7f73b684b328c893246cc1fe077f8",
        "plr_series": "f2aa6a6c1646bf2c403d4384df5e56fafbff0cced3ffb205220f3b0af86633d0",
        "qtables": "089f575861c804b266b99f2cd0075a0134c1095a1e5d9bedf8e19c1f83857d28",
        "kpi_bits": "a217a4ec7b01852cd01ec29b794099049baa988a08259bf1da9d15a89c269823",
        "sinr_bits": "6191cf5fb7cf9afbb66d3a7f5b7fd9f09eabf173c08b017e9d5108a8f7ae4b0d",
    }),
    "corridor-lim2-7": ("corridor.ini", ["sim.policy=lim2", "sim.seed=7"], {
        "kpis": "2f020c8c41b6840b30969f3c6274921bb94b7a3809cfb7cd8442494a34c1ab88",
        "events": "b3a1a50d820c6cb9de0dbece2241587e7892a70f0e3f1f232d98b9e20a45af4f",
        "plr_series": "5676b1dee3b5c59907c8e747ce6c54fc566c3d6597427867e97be199e4632d8c",
        "qtables": "36d8d93bfc173bd8fa5c4ec650831662ffc30f8119c977d6a348b44a3fc13a45",
    }),
    "corridor-fixed_a3-1": ("corridor.ini", ["sim.policy=fixed_a3", "sim.seed=1"], {
        "kpis": "c8cf0230a7219e29216cd3a96971ce9d85fdd8f744743a40a17e553357db15d3",
        "events": "515b682f50143e1b88ca847c3b2c668e098d22afd6e0edc6516de06a5a9d213c",
        "plr_series": "8004ec4a30b5a99b8086a63b3437d3cb239013a382a412527546354b512d67ca",
    }),
    "corridor-fixed_a3-7": ("corridor.ini", ["sim.policy=fixed_a3", "sim.seed=7"], {
        "kpis": "9aeb51f65c58744d3f4b5a039173f66d4d1795e47ef8c1ab299741a0f82ff213",
        "events": "a60e5bd06f069e7a276ecea44f3bb37a441b4febed61b666b4bfb87b466e2a1d",
        "plr_series": "9e1dfe1c5ca8c452b5eb1c77be84c48198d9b73ef614545e6b0dbaf164e400a0",
    }),
    "corridor-greedy_rsrp-1": ("corridor.ini", ["sim.policy=greedy_rsrp", "sim.seed=1"], {
        "kpis": "5449ae543688c4003543b496a028df6dcb6685609bc7c7c92f9bd56f673136ab",
        "events": "504bf7b4a815a608019876aa4de60202a345f39810fbaa9983b3f6ff2aa01853",
        "plr_series": "e9b12f1e2440644a5dda3e0e7cc44625511fc9fb611f6b71ed212bdcc7f2328b",
    }),
    "corridor-greedy_rsrp-7": ("corridor.ini", ["sim.policy=greedy_rsrp", "sim.seed=7"], {
        "kpis": "be2258abeffad89268f0b03e8060ba96941b096eb0724b5399a3ffd66ef41c0e",
        "events": "675edbe4cbf6182d82f7fb758e23ee0f4419da29b64d6dc69c252a4a8bcfddd0",
        "plr_series": "ba26298ef34fa32f94fb2c077011671858ed01307214bb89d182db9deb2561c7",
    }),
    "corridor-greedy_rsrp-fine-1": ("corridor.ini", CORRIDOR_FINE + ["sim.policy=greedy_rsrp", "sim.seed=1"], {
        "kpis": "5bbea3cf26f459c88ec6494fb4b1237f43a824d00ac910f09864acb98a24547b",
        "events": "f9835d15b35224cc5f02c02fd30428155b953bb302cbb24129086b840e1f184e",
        "plr_series": "a38ec076e614aff390f4591426a9040de2ecdb7f29d636bafe8028e17ec1f485",
    }),
    "corridor5x3-lim2-1": ("corridor.ini", CORRIDOR_5X3 + ["sim.policy=lim2", "sim.seed=1"], {
        "kpis": "3f1b2a270c3d81bb98352e073e7c81ea5f390db6481b820c34b8bf6fbab444a3",
        "events": "9471d682d2bea3d45da33264a87a07ce8982d720b0d71d67f31480aba31b4a2e",
        "plr_series": "d260280dc2df096df8da254ba7a204ef96da6c6400d5c0a0e5a08fb4f16d5c98",
        "qtables": "55ba25b41b6002e0a5d7c3136f6e6ac232f39c9188c5ebc8c52590389f9c6459",
    }),
    "hex50-lim2-1": ("hex50.ini", HEX_SHORT + ["sim.policy=lim2", "sim.seed=1"], {
        "kpis": "d4a62611da502bb61557bd6a0e8e3b4255bca4a1d62205eda3a6c02769964007",
        "events": "d0684364e6feccebdfcccd81e86011f4e8cdf1872662506020ba983eecdf0364",
        "plr_series": "f02502d50c2fcacca9334c89d5ea2e065d1b1872b1bc48a7d8f30ca724c792c6",
        "qtables": "17d44916736f8d458b27d658cd7d8cedd74b5f5daac9797be639d2eee5830c92",
        "kpi_bits": "3f828b76430f73a2ebb82eb55cb33bdbf951a6ae35b345ad043b98864799e591",
        "sinr_bits": "a1a7bab0d6152d5cbbe2b94d69465197549b94a0b7c51481e0f9c0f6bc77f7a9",
    }),
    "hex50-fixed_a3-1": ("hex50.ini", HEX_SHORT + ["sim.policy=fixed_a3", "sim.seed=1"], {
        "kpis": "42e73e383c9ae889dd99146c6bd871c2fe2e9cb3e038c59d2aa23120c8c340aa",
        "events": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "plr_series": "f02502d50c2fcacca9334c89d5ea2e065d1b1872b1bc48a7d8f30ca724c792c6",
    }),
    "hex50-fixed_a3-0.4s-1": ("hex50.ini", HEX_BENCH + ["sim.policy=fixed_a3", "sim.seed=1"], {
        "kpis": "d94319bd4fe15edc4417051c59c1ea5ed229c05547b6e29b94f13a8a523b8dd1",
        "events": "1515587ae48360a7b20463cc0c078aebe4c4b3390a5c8396b9e85dffa6ece544",
        "plr_series": "e1f0a520f8b715537564da47f36872f286c10dd2adaa1cc969be747399abe74a",
    }),
    "hex50-lim2-1s-1": ("hex50.ini", HEX_1S + ["sim.policy=lim2", "sim.seed=1"], {
        "kpis": "c2dacfe88e54272f7044c70ba2a9087616973f04eb9fdd4d27b3ebf0fb076885",
        "events": "8a5d984e3ec84d440c0cbccea03be7ae8d19f94de2bffc2052fe33c364985a4a",
        "plr_series": "5095f5b8619974abaa5e677e83ce26bd77e8995bd225dbe3fef828d6f1f2ffd1",
        "qtables": "90a4b0d1b6fd1c37eeaa22e18983c60daa0887e13800f3d4ff022bfc11fde2d9",
    }),
    "hex50-fixed_a3-1s-1": ("hex50.ini", HEX_1S + ["sim.policy=fixed_a3", "sim.seed=1"], {
        "kpis": "676660df17cfd18999da9e93f28fc1c107f24a55d4bfcef4234b37eeb8d62d83",
        "events": "95cfca94935eba8d5b02fb9dc48cc15f55da1501f77821c8a2d0b2c641d0df48",
        "plr_series": "2040b30e265fcfc0c98b72f2aaf206c4ab70198f3078236220e545c3ad206313",
    }),
    "hex50-greedy_rsrp-1s-1": ("hex50.ini", HEX_1S + ["sim.policy=greedy_rsrp", "sim.seed=1"], {
        "kpis": "99911fb84a01ade671415e0af4b15abe4b27cd884d1ddf7978e69c509eb9f59d",
        "events": "caf65499548660a8fa89769a7e6862daad76ca4ab41f23af8479eb821948eb15",
        "plr_series": "2a0ccebb9fdf45a4655fb51cb8012b7c95973e630ad0a77318316108260437a2",
    }),
    "hex50-eviction-lim2-1": ("hex50.ini", HEX_EVICTION + ["sim.policy=lim2", "sim.seed=1"], {
        "kpis": "9e51083be281ab948fa1427bab0924a2461138b8bba937efaa657af9c74ece35",
        "events": "945f8f174177231514b2dacef2a2483f731230e3933aed5d59fb9f9de91e4a5c",
        "plr_series": "f2154749a93fafaab0c204cef6a3e54cfe45f6ae0396b1f96611c884ce35ced5",
        "qtables": "35b87e4c318068275837b13fe9e306e3bdcaea3dc4baaf83c4563f02e778e278",
    }),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_digests_match(case):
    assert_golden(case)


# test_digests_match runs each case on the report kernel and the window
# blocks; here every case runs on the scalar oracle patched in for both,
# so the digests hold on either.  Each kernel call holds a trajectory
# block's report ticks, many of them where the block holds few UEs (215
# for the 19-site eviction case, shadowed as every hex case is), so every
# case also runs on the kernel with one-tick calls.
KERNEL_CASES = [(case, kernel) for case in sorted(GOLDEN) for kernel in ("array", "scalar")]


@pytest.mark.parametrize("case, kernel", KERNEL_CASES, ids=[f"{case}-{kernel}" for case, kernel in KERNEL_CASES])
def test_digests_hold_on_either_kernel(case, kernel, monkeypatch):
    if kernel == "array":
        # Each trajectory block is one report period, so each kernel call
        # is one tick.
        monkeypatch.setattr(sim, "TRAJECTORY_BLOCK_UE_STEPS", 1)
    else:
        monkeypatch.setattr(radio.RadioEnvironment, "block_samples", oracle_samples)
        monkeypatch.setattr(radio.RadioEnvironment, "window_sinrs", oracle_window_sinrs)
    assert_golden(case)


# Block sizes change no byte: every case with each block one item long, and
# at odd sizes.  Report ticks and execution windows alike take their link
# budget in chunks of at most ARRAY_PASS_MAX_PAIRS slots, a row spanning
# its sites plus MAX_NEIGHBORS + 6 (one row at least): at the odd sizes, 3
# rows on the 2- and 5-site corridors, 1 on the 19- and 50-site hexes.
# The corridor's 97-UE-step trajectory blocks, and so its radio blocks,
# hold 48 ticks, which do not divide its 1,000.  The 1 s hex50 cases run
# at the odd sizes only.
# name -> (KPI_BLOCK_SAMPLES, ARRAY_PASS_MAX_PAIRS, TRAJECTORY_BLOCK_UE_STEPS)
BLOCK_SIZES = {
    "ones": (1, 1, 1),
    "odd": (7, 63, 97),
}
SIZE_CASES = [(case, sizes) for case in sorted(GOLDEN) for sizes in sorted(BLOCK_SIZES) if not (
    sizes == "ones" and case.endswith("-1s-1")
)]


@pytest.mark.parametrize("case, sizes", SIZE_CASES, ids=[f"{case}-{sizes}" for case, sizes in SIZE_CASES])
def test_digests_hold_at_any_block_size(case, sizes, monkeypatch):
    kpi, pairs, ue_steps = BLOCK_SIZES[sizes]
    monkeypatch.setattr(metrics, "KPI_BLOCK_SAMPLES", kpi)
    monkeypatch.setattr(radio, "ARRAY_PASS_MAX_PAIRS", pairs)
    monkeypatch.setattr(sim, "TRAJECTORY_BLOCK_UE_STEPS", ue_steps)
    within, link_budget = [], radio.RadioEnvironment._link_budget

    def checked(env, xy, *args):
        width = len(env.sites) + radio.MAX_NEIGHBORS + 6
        within.append(len(xy) * width <= max(pairs, width))
        return link_budget(env, xy, *args)

    monkeypatch.setattr(radio.RadioEnvironment, "_link_budget", checked)
    assert_golden(case)
    assert within and all(within)


def test_eviction_case_evicts(monkeypatch):
    """The eviction case must really drop idle streams, or it guards nothing."""
    evicted = []
    original = kalman.KalmanStreams._evict

    def counting(self, now):
        before = len(self._states)
        original(self, now)
        evicted.append(before - len(self._states))

    monkeypatch.setattr(kalman.KalmanStreams, "_evict", counting)
    overrides = HEX_EVICTION + ["sim.policy=lim2", "sim.seed=1"]
    Simulation(config.load_scenario(os.path.join(SCENARIOS, "hex50.ini"), overrides)).run()
    assert sum(evicted) == 17


# The three files of a small corridor sweep, byte for byte: the per-run
# rows, the per-(policy, speed) mean and sample deviation, and the
# per-policy CDFs.
SWEEP_CSVS = {
    "sweep.csv": "7ac0b20c148777023b7fc306afa34c3816a6cea1fb55ef55d6f85e4cab8b1847",
    "sweep_summary.csv": "dae7224c4f225b08fc400ce1c7e1b97a7df2ce851f985238f2c8c35f6d97d909",
    "sweep_cdf.csv": "feddae0804be2c80996196a159b7ab5993cc24a1670d11238d32c9dd89573ba8",
}


def test_sweep_csv_digests(tmp_path):
    assert cli.main([
        "sweep", "--scenario", os.path.join(SCENARIOS, "corridor.ini"), "--set", "sim.sim_duration_s=2",
        "--speeds", "100,300", "--seeds", "0:3", "--out", str(tmp_path),
    ]) == 0
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in SWEEP_CSVS} == SWEEP_CSVS
