"""Command-line behavior: outputs, exit codes, determinism, parallelism."""

import concurrent.futures
import csv
import dataclasses
import json
import multiprocessing
import os
import struct
import subprocess
import sys
import zlib

import pytest

import hosim.cli
import hosim.radio
import hosim.sim
from hosim import config, metrics
from hosim.cli import main
from hosim.config import dump_scenario
from corridor import corridor_scenario
from test_golden import kpi_bits

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")
SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


@pytest.fixture()
def corridor_file(tmp_path):
    scenario = corridor_scenario(sim_duration_s=4.0, seed=3)
    path = tmp_path / "corridor.ini"
    path.write_text(dump_scenario(scenario))
    return str(path)


def read_rows(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def read_png(path):
    """Check that ``path`` is a well-formed 8-bit RGB PNG whose image is
    not blank; return (width, height, the set of RGB colours it uses,
    its tEXt labels as a dict)."""
    with open(path, "rb") as fh:
        data = fh.read()
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    pos, chunks = 8, []
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos:pos + 4])
        kind, body = data[pos + 4:pos + 8], data[pos + 8:pos + 8 + length]
        (crc,) = struct.unpack(">I", data[pos + 8 + length:pos + 12 + length])
        assert crc == zlib.crc32(kind + body), kind
        chunks.append((kind, body))
        pos += 12 + length
    assert pos == len(data)
    assert chunks[0][0] == b"IHDR" and chunks[-1] == (b"IEND", b"")
    width, height, depth, colour_type = struct.unpack(">IIBB", chunks[0][1][:10])
    assert width > 0 and height > 0
    assert (depth, colour_type) == (8, 2)
    raw = zlib.decompress(b"".join(body for kind, body in chunks if kind == b"IDAT"))
    stride = 1 + 3 * width
    assert len(raw) == height * stride
    rows = [raw[y * stride + 1:(y + 1) * stride] for y in range(height)]
    assert all(raw[y * stride] == 0 for y in range(height))
    colours = {row[i:i + 3] for row in rows for i in range(0, len(row), 3)}
    assert len(colours) > 1, "image holds only the background colour"
    labels = dict(body.decode("latin-1").split("\0", 1) for kind, body in chunks if kind == b"tEXt")
    return width, height, colours, labels


def legend_colours(labels):
    """{series name: rgb bytes} from a chart's ``legend`` label."""
    out = {}
    for entry in labels["legend"].split(", "):
        name, hex_colour = entry.rsplit(" ", 1)
        out[name] = bytes.fromhex(hex_colour[1:])
    return out


class TestRunCommand:
    def test_writes_kpis_and_events(self, corridor_file, tmp_path):
        out = str(tmp_path / "out")
        code = main(["run", "--scenario", corridor_file, "--policy", "fixed_a3", "--out", out])
        assert code == 0
        kpis = read_rows(os.path.join(out, "kpis.csv"))
        assert len(kpis) == 2
        assert kpis[0][0] == "policy"
        assert kpis[1][0] == "fixed_a3"
        assert os.path.exists(os.path.join(out, "events.csv"))

    def test_missing_scenario_nonzero_exit_names_path(self, tmp_path, capsys):
        code = main(["run", "--scenario", "/no/such/file.ini", "--out", str(tmp_path)])
        assert code != 0
        assert "/no/such/file.ini" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    def test_unreadable_scenario_exits_2_names_path(self, tmp_path, capsys, kind):
        path = tmp_path / "scenario.ini"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(0x80, 0x100)))
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: scenario: ")
        assert str(path) in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text", ["tx_power_dbm = 46\n", "[sim]\ngarbage line\n"], ids=["no_section", "bare_line"]
    )
    def test_unparsable_scenario_is_one_line(self, tmp_path, capsys, text):
        path = tmp_path / "scenario.ini"
        path.write_text(text)
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("configuration error: scenario: ")
        assert str(path) in err

    def test_bad_override_nonzero_exit_names_field(self, corridor_file, tmp_path, capsys):
        code = main(["run", "--scenario", corridor_file, "--set", "sim.warp=1", "--out", str(tmp_path)])
        assert code != 0
        assert "sim.warp" in capsys.readouterr().err

    def test_two_invocations_identical_bytes(self, corridor_file, tmp_path):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        assert main(["run", "--scenario", corridor_file, "--out", out_a]) == 0
        assert main(["run", "--scenario", corridor_file, "--out", out_b]) == 0
        for name in ("kpis.csv", "events.csv"):
            with open(os.path.join(out_a, name), "rb") as fa, open(os.path.join(out_b, name), "rb") as fb:
                assert fa.read() == fb.read()

    def test_env_var_output_root(self, corridor_file, tmp_path, monkeypatch):
        root = str(tmp_path / "envout")
        monkeypatch.setenv("HOSIM_OUT", root)
        assert main(["run", "--scenario", corridor_file, "--policy", "greedy_rsrp"]) == 0
        assert os.path.exists(os.path.join(root, "kpis.csv"))


class TestConfigurationErrors:
    """Every bad input exits 2 and names its field before any run starts."""

    # Finite but absurd magnitudes that used to end in OverflowError or a
    # math domain error once a run started.
    ABSURD = {
        "radio.tx_power_dbm": ("1e308", "-1e308", "4000", "-4000", "1e12", "-1e12"),
        "radio.noise_figure_db": ("1e308", "4000", "1e12"),
        "radio.carrier_freq_hz": ("1e308",),
        "channel.path_loss_exponent": ("1e308", "4000", "1e12"),
        "channel.shadowing_sigma_db": ("1e308", "4000", "1e12"),
        "channel.meas_noise_sigma_db": ("1e308",),
        "channel.env_noise_sigma_db": ("1e308",),
        "channel.thermal_noise_density_dbm_hz": ("1e308", "4000", "1e12"),
        "sim.ue_speed_kmh": ("1e308",),
        "sim.corridor_lane_m": ("1e308", "-1e308"),
        "sim.boundary_margin_m": ("-1e308",),
    }

    @pytest.mark.parametrize("argv,field", [
        (["run", "--set", "channel.path_loss_exponent=-1"], "channel.path_loss_exponent"),
        (["run", "--set", "sim.sim_duration_s=nan"], "sim.sim_duration_s"),
        (["run", "--duration", "nan"], "sim.sim_duration_s"),
        (["run", "--speed", "nan"], "sim.ue_speed_kmh"),
        (["run", "--set", "sim.fixed_ttt_ms=7", "--policy", "fixed_a3"], "sim.fixed_ttt_ms"),
        (["run", "--set", "radio.bandwidth_hz=1e6"], "radio.bandwidth_hz"),
        (["run", "--set", "radio.bandwidth_hz=0"], "radio.bandwidth_hz"),
        (["run", "--set", "radio.carrier_freq_hz=-1"], "radio.carrier_freq_hz"),
        (["run", "--set", "radio.tx_power_dbm=inf"], "radio.tx_power_dbm"),
        (["run", "--set", "learning.r=nan"], "learning.r"),
        (["run", "--set", "sim.boundary_margin_m=nan"], "sim.boundary_margin_m"),
        (["run", "--set", "sim.step_s=5e-324"], "sim.step_s"),
        (["run", "--seed", "-1"], "sim.seed"),
        (["sweep", "--seeds", "0:"], "seeds"),
        (["sweep", "--seeds", "a"], "seeds"),
        (["sweep", "--seeds", "3:3"], "seeds"),
        (["sweep", "--speeds", "abc"], "speeds"),
        (["sweep", "--speeds", ","], "speeds"),
        (["convergence", "--seeds", "0:"], "seeds"),
        *[(["run", "--duration", "0.2", "--set", f"{key}={value}"], key)
          for key, values in ABSURD.items() for value in values],
        (["sweep", "--jobs", "0"], "jobs"),
        (["sweep", "--jobs", "-2"], "jobs"),
        (["run", "--duration", "0.01"], "sim.sim_duration_s"),
        (["sweep", "--seeds", "1,1"], "seeds"),
        (["sweep", "--speeds", "50,50.0"], "speeds"),
        (["sweep", "--policies", "fixed_a3,fixed_a3"], "policies"),
        (["sweep", "--policies", ","], "policies"),
        (["run", "--set", "sim.boundary_margin_m=none"], "sim.boundary_margin_m"),
        (["run", "--set", "sim.boundary_margin_m=289"], "sim.boundary_margin_m"),
        (["run", "--set", "sim.layout=hex", "--set", "sim.n_sites=7", "--set", "sim.boundary_margin_m=0"],
         "sim.boundary_margin_m"),
        # numpy's normal refuses a negative-zero scale.
        *[(["run", "--set", f"channel.{key}=-0.0"], f"channel.{key}")
          for key in ("shadowing_sigma_db", "meas_noise_sigma_db", "env_noise_sigma_db")],
        # A per-step travel that overflows once the run starts.
        (["run", "--set", "sim.step_s=5e307", "--set", "sim.sim_duration_s=1e308",
          "--set", "sim.report_period_s=5e307", "--set", "sim.ue_speed_kmh=1000"], "sim.sim_duration_s"),
        # The ambient walk rounds back to a huge mean; a huge bandwidth drowns every link in noise.
        (["run", "--duration", "1", "--set", "channel.env_noise_mean_dbm=1e308"], "channel.env_noise_mean_dbm"),
        (["run", "--duration", "1", "--set", "radio.bandwidth_hz=1e308"], "radio.bandwidth_hz"),
        # A report period whose ratio to the step overflows while the run's does not.
        (["run", "--set", "sim.report_period_s=1e308"], "sim.report_period_s"),
        # One report period of every UE, the least a trajectory block holds,
        # spans more than 2**22 UE-steps: 40,000,000 steps of the corridor's
        # 2 UEs (1.3 GB of positions), or 5,000,000 UEs at one step.
        (["run", "--set", "sim.step_s=1e-9"], "sim.step_s"),
        (["run", "--set", "sim.n_ues_per_cell=2500000"], "sim.n_ues_per_cell"),
        # 100,000 sites are past n_sites' declared 2,048, the most that one
        # UE a site allows within a report tick's 2**22 (UE, site) pairs.
        (["run", "--set", "sim.n_sites=100000", "--set", "sim.n_ues_per_cell=1"], "sim.n_sites"),
        # With no UEs there are no (UE, site) pairs, and the site count
        # alone must still bound the sites built at construction.
        (["run", "--set", "sim.n_ues_per_cell=0", "--set", "sim.n_sites=100000"], "sim.n_sites"),
        # n_sites is declared within both size bounds, so past either the
        # UEs are at fault: 3,000,000 corridor UEs span 6,000,000 (UE, site)
        # pairs, and 120,000 UEs over a 40-step report period 4,800,000 UE-steps.
        (["run", "--set", "sim.n_ues_per_cell=1500000"], "sim.n_ues_per_cell"),
        (["run", "--set", "sim.step_s=0.001", "--set", "sim.n_ues_per_cell=60000"], "sim.n_ues_per_cell"),
        # A report period of 4e298 steps prints as a short count.
        (["run", "--set", "sim.step_s=1e-300"], "sim.step_s"),
    # A radio or sim case's id keeps the bare key, so case ids do not move
    # with the section prefix the error names.
    ], ids=lambda value: value.removeprefix("radio.").removeprefix("sim.") if isinstance(value, str) else None)
    def test_exit_2_names_field(self, corridor_file, tmp_path, capsys, argv, field):
        out = tmp_path / "out"
        assert main(argv + ["--scenario", corridor_file, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {field}: ")
        assert "Traceback" not in err
        assert len(err) < 200, err  # a huge count prints to three digits
        assert not out.exists()

    # The learning keys go through the same declared ranges as every other
    # float key, so they get the same messages.
    @pytest.mark.parametrize("override,message", [
        ("learning.alpha=nan", "learning.alpha: must be finite"),
        ("learning.alpha=1.5", "learning.alpha: must be in [0, 1]"),
        ("learning.gamma=1", "learning.gamma: must be in [0, 0.9999999999999999]"),
        ("learning.r=0", "learning.r: must be in [1e-06, 1e+06]"),
    ])
    def test_learning_errors_match_other_ranged_keys(self, corridor_file, tmp_path, capsys, override, message):
        assert main(["run", "--scenario", corridor_file, "--set", override, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    # An output directory beneath a regular file cannot be made, even by
    # root, whom permission bits do not stop: the command stops before its
    # first run instead of losing the run's results when it writes them.
    @pytest.mark.parametrize("command", ["run", "sweep", "convergence", "qtable"])
    def test_out_beneath_a_file_exits_2_before_any_run(self, corridor_file, tmp_path, capsys, monkeypatch, command):
        def no_run(*args):
            raise AssertionError("a run started")

        monkeypatch.setattr(hosim.sim, "run", no_run)
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "out"
        assert main([command, "--scenario", corridor_file, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"configuration error: out: cannot create {out}: Not a directory\n"

    @pytest.mark.parametrize("scenario", ["corridor.ini", "hex50.ini"])
    def test_longest_run_at_the_coarsest_step_completes(self, tmp_path, scenario):
        # At the duration bound the step and the travel per step stay finite.
        out = tmp_path / "out"
        assert main([
            "run", "--scenario", os.path.join(SCENARIOS, scenario), "--out", str(out),
            "--set", "sim.step_s=5e5", "--set", "sim.sim_duration_s=1e6",
            "--set", "sim.report_period_s=5e5", "--set", "sim.ue_speed_kmh=1000",
        ]) == 0
        assert (out / "kpis.csv").is_file()


class TestSweepCommand:
    def test_cardinality(self, corridor_file, tmp_path):
        out = str(tmp_path / "sweep")
        code = main([
            "sweep", "--scenario", corridor_file, "--seeds", "0,1,2",
            "--speeds", "100,200", "--policies", "fixed_a3,greedy_rsrp,lim2",
            "--set", "sim.sim_duration_s=2", "--out", out,
        ])
        assert code == 0
        rows = read_rows(os.path.join(out, "sweep.csv"))
        assert len(rows) - 1 == 3 * 2 * 3
        summary = read_rows(os.path.join(out, "sweep_summary.csv"))
        assert len(summary) - 1 == 2 * 3
        cdf_rows = read_rows(os.path.join(out, "sweep_cdf.csv"))
        # one point per run, per policy, for two metrics
        assert len(cdf_rows) - 1 == 3 * 2 * 3 * 2
        fractions = [float(r[3]) for r in cdf_rows[1:]]
        assert all(0.0 < f <= 1.0 for f in fractions)

    def test_seven_speed_default_set(self, corridor_file, tmp_path):
        out = str(tmp_path / "sweep7")
        code = main([
            "sweep", "--scenario", corridor_file, "--seeds", "0",
            "--policies", "fixed_a3", "--set", "sim.sim_duration_s=1", "--out", out,
        ])
        assert code == 0
        rows = read_rows(os.path.join(out, "sweep.csv"))
        assert len(rows) - 1 == 7

    def test_full_default_cross_product_is_63_rows(self, corridor_file, tmp_path):
        out = str(tmp_path / "sweep63")
        code = main([
            "sweep", "--scenario", corridor_file, "--seeds", "0,1,2",
            "--set", "sim.sim_duration_s=1", "--out", out,
        ])
        assert code == 0
        rows = read_rows(os.path.join(out, "sweep.csv"))
        assert len(rows) - 1 == 7 * 3 * 3

    def test_jobs_do_not_change_output(self, corridor_file, tmp_path):
        outs = {}
        for jobs in (1, 2):
            out = str(tmp_path / f"jobs{jobs}")
            code = main([
                "sweep", "--scenario", corridor_file, "--seeds", "0:4",
                "--speeds", "200", "--policies", "lim2",
                "--set", "sim.sim_duration_s=2", "--jobs", str(jobs), "--out", out,
            ])
            assert code == 0
            with open(os.path.join(out, "sweep.csv"), "rb") as fh:
                outs[jobs] = fh.read()
        assert outs[1] == outs[2]

    def test_pool_no_larger_than_the_sweep(self, corridor_file, tmp_path, monkeypatch):
        sizes = []

        class RecordingPool:
            """Records the requested size and runs in this process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(hosim.cli, "ProcessPoolExecutor", RecordingPool)
        outs = {}
        # (policies, seeds, jobs, shadowed) -> the pool size asked for, None
        # for a serial sweep.  workers = min(jobs, runs), whatever the channel.
        cases = {
            ("fixed_a3", "0", 64, False): None,
            ("fixed_a3", "0,1", 64, False): 2,
            ("fixed_a3", "0,1", 1, False): None,
            ("lim2,fixed_a3,greedy_rsrp", "0", 64, False): 3,
            ("lim2,fixed_a3,greedy_rsrp", "0,1", 64, False): 6,
            ("lim2,fixed_a3,greedy_rsrp", "0,1", 1, False): None,
            ("lim2,fixed_a3,greedy_rsrp", "0", 64, True): 3,
            ("lim2,fixed_a3,greedy_rsrp", "0", 1, True): None,
        }
        for (policies, seeds, jobs, shadowed), size in cases.items():
            del sizes[:]
            out = str(tmp_path / f"{policies}-{seeds}-{jobs}-{shadowed}")
            assert main([
                "sweep", "--scenario", corridor_file, "--seeds", seeds, "--speeds", "200",
                "--policies", policies, "--set", "sim.sim_duration_s=1", "--jobs", str(jobs), "--out", out,
                *(["--set", "channel.shadowing_sigma_db=4"] if shadowed else []),
            ]) == 0
            assert sizes == ([] if size is None else [size])
            with open(os.path.join(out, "sweep.csv"), "rb") as fh:
                outs[policies, seeds, jobs, shadowed] = fh.read()
        for policies, seeds, jobs, shadowed in cases:
            if jobs == 1:
                assert outs[policies, seeds, 1, shadowed] == outs[policies, seeds, 64, shadowed]

    def test_import_leaves_the_process_pool_unloaded(self):
        """Only a sweep with workers needs the process pool, so importing
        the CLI does not import it; the name still resolves on first use."""
        code = (
            "import sys, hosim.cli\n"
            "assert 'concurrent.futures.process' not in sys.modules, 'pool imported'\n"
            "from concurrent.futures.process import ProcessPoolExecutor\n"
            "assert hosim.cli.ProcessPoolExecutor is ProcessPoolExecutor\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(hosim.cli.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize("sigma", ["0", "4"], ids=["shadow-free", "shadowed"])
    def test_failing_run_names_itself(self, corridor_file, tmp_path, monkeypatch, capsys, sigma):
        run, given = hosim.sim.run, []

        def failing_run(scenario):
            given.append((scenario.policy, scenario.seed))
            if scenario.policy == "greedy_rsrp" and scenario.seed == 1:
                raise RuntimeError("boom")
            return run(scenario)

        monkeypatch.setattr(hosim.sim, "run", failing_run)
        out = str(tmp_path / "failing")
        code = main([
            "sweep", "--scenario", corridor_file, "--seeds", "0:3", "--speeds", "200",
            "--policies", "fixed_a3,greedy_rsrp", "--set", "sim.sim_duration_s=1",
            "--set", f"channel.shadowing_sigma_db={sigma}", "--jobs", "1", "--out", out,
        ])
        assert code == 1
        # A serial sweep runs policy by policy, seed by seed, and stops at the failure.
        assert given == [("fixed_a3", 0), ("fixed_a3", 1), ("fixed_a3", 2), ("greedy_rsrp", 0), ("greedy_rsrp", 1)]
        assert capsys.readouterr().err == "run failed: policy=greedy_rsrp speed=200 seed=1: boom\n"
        assert not os.path.exists(os.path.join(out, "sweep.csv"))

    def test_range_seed_syntax(self, corridor_file, tmp_path):
        out = str(tmp_path / "range")
        code = main([
            "sweep", "--scenario", corridor_file, "--seeds", "0:3", "--speeds", "200",
            "--policies", "fixed_a3", "--set", "sim.sim_duration_s=1", "--out", out,
        ])
        assert code == 0
        assert len(read_rows(os.path.join(out, "sweep.csv"))) - 1 == 3


class TestSweepRuns:
    """Every sweep run takes the path a lone run takes, on either channel:
    each row must be its lone run's, bit for bit."""

    POLICIES = ("lim2", "fixed_a3", "greedy_rsrp")
    SPEEDS = (100.0, 350.0)
    SEEDS = (0, 1)
    # Five sites, three UEs each, for 8 s.  Handovers fail there, so a
    # completion's target RSRP, read at the UE's position, shapes the
    # outcomes too.
    FIVE_SITES = ["sim.n_sites=5", "sim.n_ues_per_cell=3", "sim.sim_duration_s=8"]

    def sweep(self, corridor_file, out, jobs, *argv):
        return main([
            "sweep", "--scenario", corridor_file, "--policies", ",".join(self.POLICIES),
            "--speeds", ",".join(f"{v:g}" for v in self.SPEEDS), "--seeds", ",".join(map(str, self.SEEDS)),
            "--jobs", str(jobs), "--out", out, *argv,
        ])

    @pytest.mark.parametrize("jobs, overrides", [
        (1, []),
        (2, []),
        (2, ["channel.shadowing_sigma_db=4"]),
    ], ids=["1", "2", "2-shadowed"])
    def test_rows_equal_lone_runs(self, corridor_file, tmp_path, monkeypatch, jobs, overrides):
        runs = tmp_path / "runs"
        runs.mkdir()
        run = hosim.sim.run

        def recorded_run(scenario):
            # Kept in a file: a pool worker's memory does not come back.
            result = run(scenario)
            name = f"{scenario.policy}-{scenario.ue_speed_kmh:g}-{scenario.seed}"
            record = [kpi_bits(result.kpis), repr(result.kpis), repr(result.outcomes)]
            (runs / name).write_text(json.dumps(record))
            return result

        class ForkPool(concurrent.futures.ProcessPoolExecutor):
            """Workers forked from this process, so they run the patches."""

            def __init__(self, max_workers):
                super().__init__(max_workers, mp_context=multiprocessing.get_context("fork"))

        monkeypatch.setattr(hosim.cli, "ProcessPoolExecutor", ForkPool)
        monkeypatch.setattr(hosim.sim, "run", recorded_run)
        # At 97 UE-steps a trajectory block, a shadow-free sweep run's 200
        # ticks fall in 34 kernel calls (33 of 6 ticks, then 2), where its
        # lone run computes one; a shadowed run's blocks are one tick each.
        monkeypatch.setattr(hosim.sim, "TRAJECTORY_BLOCK_UE_STEPS", 97)
        out = str(tmp_path / "sweep")
        settings = self.FIVE_SITES + overrides
        assert self.sweep(corridor_file, out, jobs, *(f"--set={item}" for item in settings)) == 0
        monkeypatch.undo()
        rows = read_rows(os.path.join(out, "sweep.csv"))[1:]
        base = config.load_scenario(corridor_file, settings)
        for policy in self.POLICIES:
            for speed in self.SPEEDS:
                for seed in self.SEEDS:
                    lone = hosim.sim.Simulation(
                        dataclasses.replace(base, policy=policy, ue_speed_kmh=speed, seed=seed)
                    ).run()
                    bits, kpis, outcomes = json.loads((runs / f"{policy}-{speed:g}-{seed}").read_text())
                    assert bits == kpi_bits(lone.kpis)
                    assert kpis == repr(lone.kpis)
                    assert outcomes == repr(lone.outcomes)
                    row = [metrics.format_value(v) for v in metrics.kpi_row(policy, seed, speed, lone.kpis)]
                    assert row in rows
        assert len(rows) == len(self.POLICIES) * len(self.SPEEDS) * len(self.SEEDS)


class TestConvergenceCommand:
    def test_rows_per_second_and_seed(self, corridor_file, tmp_path):
        out = str(tmp_path / "conv")
        code = main([
            "convergence", "--scenario", corridor_file, "--seeds", "0,1",
            "--duration", "6", "--out", out,
        ])
        assert code == 0
        rows = read_rows(os.path.join(out, "convergence.csv"))
        assert rows[0] == ["seed", "timestamp_s", "avg_plr"]
        assert len(rows) - 1 == 2 * 6

    def test_timestamps_are_bucket_starts(self, corridor_file, tmp_path):
        # One report every 2 s fills only the even 1 s buckets.
        out = str(tmp_path / "conv")
        code = main([
            "convergence", "--scenario", corridor_file, "--set", "sim.report_period_s=2.0",
            "--duration", "10", "--out", out,
        ])
        assert code == 0
        rows = read_rows(os.path.join(out, "convergence.csv"))
        assert [row[1] for row in rows[1:]] == ["0", "2", "4", "6", "8"]


class TestQtableCommand:
    def test_dump_schema(self, corridor_file, tmp_path):
        out = str(tmp_path / "qt")
        code = main(["qtable", "--scenario", corridor_file, "--duration", "6", "--out", out])
        assert code == 0
        rows = read_rows(os.path.join(out, "qtables.csv"))
        assert rows[0] == ["cell", "ttt_ms", "hyst_db", "q"]
        for row in rows[1:]:
            assert 0.0 <= float(row[3]) <= 1.0

    def test_requires_lim2(self, corridor_file, tmp_path, capsys):
        code = main([
            "qtable", "--scenario", corridor_file, "--set", "sim.policy=fixed_a3",
            "--out", str(tmp_path),
        ])
        assert code != 0
        assert "policy" in capsys.readouterr().err


class TestPlotCommand:
    def test_sweep_plot(self, corridor_file, tmp_path):
        out = str(tmp_path / "plots")
        sweep_out = str(tmp_path / "sweepdata")
        assert main([
            "sweep", "--scenario", corridor_file, "--seeds", "0", "--speeds", "100,200",
            "--policies", "fixed_a3", "--set", "sim.sim_duration_s=1", "--out", sweep_out,
        ]) == 0
        code = main(["plot", os.path.join(sweep_out, "sweep.csv"), "--out", out])
        assert code == 0
        assert os.path.exists(os.path.join(out, "sweep.png"))
        width, height, colours, labels = read_png(os.path.join(out, "sweep.png"))
        assert width > height  # two panels side by side
        assert "speed (km/h)" in labels["left panel"] and "throughput" in labels["left panel"]
        assert "packet loss rate" in labels["right panel"]
        legend = legend_colours(labels)
        assert list(legend) == ["fixed_a3"]
        assert legend["fixed_a3"] in colours

    def test_convergence_plot_is_deterministic(self, corridor_file, tmp_path, capsys):
        conv_out = str(tmp_path / "convdata")
        assert main([
            "convergence", "--scenario", corridor_file, "--seeds", "0,1",
            "--duration", "3", "--out", conv_out,
        ]) == 0
        csv_path = os.path.join(conv_out, "convergence.csv")
        images = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert main(["plot", csv_path, "--out", out]) == 0
            path = os.path.join(out, "convergence.png")
            with open(path, "rb") as fh:
                images.append(fh.read())
            assert not os.path.exists(path + ".tmp")
        assert images[0] == images[1]
        _, _, colours, labels = read_png(os.path.join(tmp_path, "a", "convergence.png"))
        assert "time (s)" in labels["axes"] and "average packet loss rate" in labels["axes"]
        legend = legend_colours(labels)
        assert list(legend) == ["seed 0", "seed 1"]
        assert all(colour in colours for colour in legend.values())
        stdout = capsys.readouterr().out
        assert f"wrote {os.path.join(tmp_path, 'a', 'convergence.png')}" in stdout
        assert labels["legend"] in stdout

    @pytest.mark.parametrize("name,text,png", [
        ("one_speed.csv",
         "policy,seed,speed_kmh,mean_throughput_mbps,plr\n"
         "lim2,0,120,5.5,0.0\nlim2,1,120,5.5,0.0\nfixed_a3,0,120,4.0,0.25\n",
         "sweep.png"),
        ("flat.csv",
         "policy,seed,speed_kmh,mean_throughput_mbps,plr\n"
         "lim2,0,50,3.0,0.1\nlim2,0,100,3.0,0.1\nlim2,0,150,3.0,0.1\n",
         "sweep.png"),
        ("one_sample.csv", "seed,timestamp_s,avg_plr\n4,0,0.125\n", "convergence.png"),
        ("speed_overflow.csv",
         "policy,seed,speed_kmh,mean_throughput_mbps,plr\n"
         "lim2,0,-1e308,3.0,0.1\nlim2,0,1e308,4.0,0.2\n",
         "sweep.png"),
        ("tput_overflow.csv",
         "policy,seed,speed_kmh,mean_throughput_mbps,plr\n"
         "lim2,0,50,-1.7e308,0.1\nlim2,0,100,1.7e308,0.2\n",
         "sweep.png"),
    ])
    def test_degenerate_axes(self, tmp_path, name, text, png):
        path = tmp_path / name
        path.write_text(text)
        out = str(tmp_path / "plots")
        assert main(["plot", str(path), "--out", out]) == 0
        _, _, colours, labels = read_png(os.path.join(out, png))
        assert all(colour in colours for colour in legend_colours(labels).values())

    def test_empty_csv_exits_1(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("seed,timestamp_s,avg_plr\n")
        out = tmp_path / "plots"
        assert main(["plot", str(path), "--out", str(out)]) == 1
        assert f"no rows in {path}" in capsys.readouterr().err
        assert not out.exists()

    SWEEP_HEAD = "policy,seed,speed_kmh,mean_throughput_mbps,plr\nlim2,0,50,3.0,0.1\n"
    # file name -> (contents, the row and column the message must name)
    BAD_VALUES = {
        "speed_abc.csv": (SWEEP_HEAD + "lim2,0,abc,3.0,0.1\n", "row 2, column speed_kmh"),
        "tput_nan.csv": (SWEEP_HEAD + "lim2,0,100,nan,0.1\n", "row 2, column mean_throughput_mbps"),
        "plr_inf.csv": (SWEEP_HEAD + "lim2,1,50,3.0,inf\n", "row 2, column plr"),
        "short_row.csv": (SWEEP_HEAD + "lim2,0,100\n", "row 2, column mean_throughput_mbps"),
        "seed_x.csv": ("seed,timestamp_s,avg_plr\n1,0,0.1\nx,1,0.2\n", "row 2, column seed"),
        "time_neg_inf.csv": ("seed,timestamp_s,avg_plr\n1,-inf,0.1\n", "row 1, column timestamp_s"),
    }

    @pytest.mark.parametrize("name,data", [
        ("nonexistent.csv", None),
        ("sweep.png", b"\x89PNG\r\n\x1a\n\xff\xfe"),
        *[(name, text.encode()) for name, (text, _) in BAD_VALUES.items()],
    ])
    def test_unreadable_csv_exits_1(self, tmp_path, capsys, name, data):
        path = tmp_path / name
        if data is not None:
            path.write_bytes(data)
        out = tmp_path / "plots"
        assert main(["plot", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and err.count("\n") == 1
        if name in self.BAD_VALUES:
            assert self.BAD_VALUES[name][1] in err
            assert not out.exists()

    def test_out_beneath_a_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        path.write_text(self.SWEEP_HEAD)
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "plots"
        assert main(["plot", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"configuration error: out: cannot create {out}: Not a directory\n"

    def test_wrong_columns_exits_1(self, tmp_path, capsys):
        path = tmp_path / "qtables.csv"
        path.write_text("cell,ttt_ms,hyst_db,q\n0,256,3,0.5\n")
        out = tmp_path / "plots"
        assert main(["plot", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"no column policy in {path}\n"
        assert not out.exists()
