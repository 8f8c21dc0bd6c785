"""hosim benchmark: seeded end-to-end runs of the CLI, plus a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is the checkout's own
``src/hosim``, imported from source (there is nothing to build).  Each
hosim run is one child process, started one at a time.

``--trace 0`` repeats the workload's CLI command until ``--seconds`` are
used (at least three runs), with two set-up probes (import,
``load_scenario`` and ``Simulation()``) before each, and reports process
wall time, simulated measurement reports per wall second, set-up time,
peak resident memory of the largest process (median), and the fraction
of runs that passed their checks.

On a shared host the speed this process gets drifts by tens of percent
over minutes.  Each set-up probe therefore also times a fixed calibration
loop that does not involve hosim, and the end-to-end times are scaled by
``CAL_REF_S / mean calibration time`` of the same invocation: they are
reference-host seconds, so a change to hosim moves them and a slow spell
of the host does not.  ``wall_s`` is the mean wall time of the runs so
scaled (``reports_per_s`` follows from it) and ``setup_s`` the median
set-up time so scaled.  The raw walls, set-up times and
calibration times are printed in the context line.  Per-layer times from
``--trace 1`` are raw seconds.  ``--trace 1`` makes two runs under the
outside-in tracer (``tracer.py``), each after an untraced run, and
reports per-layer times and exact counters.

Every run's CSVs are hashed with sha256.  All runs of one invocation must
agree, and for the seeds stored in ``digests.json`` they must equal the
stored digests; a run that exits nonzero or disagrees counts as failed.
The last stdout line is the JSON result; the line before it records the
machine, versions and the exact command of the workload.  Metric names
and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"
SPEC = ROOT / "BENCHMARK.json"

DEFAULT_SEED = 1
HELD_OUT_SEED = 9001
SETUP_PROBES_PER_RUN = 2
MIN_RUNS = 3
CHILD_TIMEOUT_S = 160.0
TRACED_RUNS = 2
# Median time of child.calibrate() on the host the bounds were set on
# (2-vCPU Intel Xeon VM, Python 3.11.7, numpy 2.4.6) in its faster spells.
CAL_REF_S = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # hosim subcommand: "run" or "sweep"
    scenario: str
    policies: tuple[str, ...]
    jobs: int = 1
    overrides: tuple[str, ...] = ()
    speeds: tuple[int, ...] = ()  # sweep only
    n_seeds: int = 1  # sweep only: seeds N .. N+n_seeds-1 for --seed N

    @property
    def n_runs(self) -> int:
        return len(self.policies) * max(len(self.speeds), 1) * self.n_seeds

    def argv(self, seed: int, out: str, jobs: int | None = None) -> list[str]:
        args = [self.command, "--scenario", self.scenario, "--out", out]
        for item in self.overrides:
            args += ["--set", item]
        if self.command == "run":
            return args + ["--policy", self.policies[0], "--seed", str(seed)]
        return args + [
            "--policies", ",".join(self.policies),
            "--speeds", ",".join(map(str, self.speeds)),
            "--seeds", f"{seed}:{seed + self.n_seeds}",
            "--jobs", str(jobs or self.jobs),
        ]

    def outputs(self) -> dict[str, int | None]:
        """CSV files a run writes, with their data-row count where fixed."""
        if self.command == "run":
            return {"kpis.csv": 1, "events.csv": None}
        n_cells = len(self.policies) * len(self.speeds)
        return {
            "sweep.csv": self.n_runs,
            "sweep_summary.csv": n_cells,
            "sweep_cdf.csv": 2 * self.n_runs,
        }

    @property
    def kpi_file(self) -> str:
        return "kpis.csv" if self.command == "run" else "sweep.csv"

    def setup_spec(self, seed: int) -> dict:
        fields = {"policy": self.policies[0], "seed": seed}
        if self.speeds:
            fields["ue_speed_kmh"] = float(self.speeds[0])
        return {"scenario": self.scenario, "overrides": list(self.overrides), "fields": fields}


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("hex50_lim2", "run", "scenarios/hex50.ini", ("lim2",),
             overrides=("sim.sim_duration_s=0.2",)),
    Workload("hex50_fixed_a3", "run", "scenarios/hex50.ini", ("fixed_a3",),
             overrides=("sim.sim_duration_s=0.4",)),
    Workload("corridor_sweep", "sweep", "scenarios/corridor.ini", ("lim2", "fixed_a3", "greedy_rsrp"),
             jobs=2, speeds=(50, 100, 150, 200, 250, 300, 350), n_seeds=3),
)}


class BenchError(Exception):
    """The benchmark cannot run here (missing program or inputs)."""


@dataclass
class ChildRun:
    wall_s: float
    problems: list[str] = field(default_factory=list)
    result: dict = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    kpi_rows: list[dict] = field(default_factory=list)
    event_rows: int = 0
    spans: dict | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


def _child(args: list[str]) -> tuple[float, int, dict | None, str]:
    """Start child.py, wait for it, return (wall, exit code, last JSON line, stderr)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\ntimed out after {CHILD_TIMEOUT_S} s"
    except BaseException:
        # Interrupted: take the child and its pool workers down with us.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    wall = time.perf_counter() - start
    result = None
    lines = out.strip().splitlines()
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return wall, proc.returncode, result, err


def setup_probe(wl: Workload, seed: int) -> dict:
    _, code, result, err = _child(["setup", json.dumps(wl.setup_spec(seed))])
    if code != 0 or result is None:
        raise BenchError(f"set-up probe failed (exit {code}): {err.strip()[-2000:]}")
    return result


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run_child(wl: Workload, seed: int, mode: str, out: Path, jobs: int | None = None) -> ChildRun:
    """One hosim CLI run; hashes and checks the CSVs it writes."""
    out.mkdir(parents=True)
    spans_path = out / "spans.npz"
    wall, code, result, err = _child(["run", mode, str(spans_path), "--", *wl.argv(seed, str(out), jobs)])
    run = ChildRun(wall, result=result or {})
    if code != 0 or result is None:
        run.problems.append(f"exit {code}: {err.strip()[-2000:]}")
        return run
    for name, rows in wl.outputs().items():
        path = out / name
        if not path.is_file():
            run.problems.append(f"{name} missing")
            continue
        run.digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        data = _read_csv(path)
        if rows is not None and len(data) != rows:
            run.problems.append(f"{name}: {len(data)} rows, expected {rows}")
        if name == wl.kpi_file:
            run.kpi_rows = data
        if name == "events.csv":
            run.event_rows = len(data)
    for row in run.kpi_rows:
        for key, value in row.items():
            if key != "policy" and not math.isfinite(float(value)):
                run.problems.append(f"{wl.kpi_file}: {key}={value} is not finite")
    if mode != "none":
        import numpy as np

        with np.load(spans_path) as z:
            run.spans = {key: z[key] for key in z.files}
    return run


def stored_digests(wl: Workload, seed: int) -> dict[str, str] | None:
    if not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(wl.name, {}).get(str(seed))


def check_digests(runs: list[ChildRun], expected: dict[str, str] | None) -> None:
    """Every run must match the stored digests, or failing those the first good run."""
    if expected is None:
        expected = next((r.digests for r in runs if r.ok), None)
    for run in runs:
        if run.ok and run.digests != expected:
            bad = sorted(k for k in run.digests if run.digests[k] != (expected or {}).get(k))
            run.problems.append(f"output digest differs: {', '.join(bad)}")


class Spans:
    """Per-name totals, self times and counts derived from one span file."""

    def __init__(self, z: dict):
        import numpy as np

        self.names = [str(n) for n in z["names"]]
        nid = z["name_id"]
        dur = z["end"] - z["start"]
        parent = z["parent"]
        nested = parent >= 0
        child_sum = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        n = len(self.names)
        self._total = np.bincount(nid, weights=dur, minlength=n)
        self._self = np.bincount(nid, weights=dur - child_sum, minlength=n)
        self._calls = np.bincount(nid, minlength=n)
        self._nid, self._dur = nid, dur
        self._parent_nid = np.where(nested, nid[np.maximum(parent, 0)], -1)

    def _id(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def total(self, name: str) -> float:
        i = self._id(name)
        return float(self._total[i]) if i >= 0 else 0.0

    def self_time(self, name: str) -> float:
        i = self._id(name)
        return float(self._self[i]) if i >= 0 else 0.0

    def calls(self, name: str) -> int:
        i = self._id(name)
        return int(self._calls[i]) if i >= 0 else 0

    def total_under(self, name: str, parent: str) -> float:
        i, p = self._id(name), self._id(parent)
        if i < 0 or p < 0:
            return 0.0
        return float(self._dur[(self._nid == i) & (self._parent_nid == p)].sum())

    def call_counts(self) -> dict[str, int]:
        return {n: self.calls(n) for n in self.names}


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Spans, counters: dict[str, int], reports: int) -> dict[str, float]:
    c = lambda name: counters.get(name, 0)
    return {
        "sim.construct_s": spans.total("sim.construct"),
        "sim.mobility_s": spans.total("sim.mobility"),
        "sim.step_self_s": spans.self_time("sim.step"),
        "radio.report_s": spans.total("radio.report"),
        "radio.report_calls": spans.calls("radio.report"),
        "radio.sinr_sample_s": spans.total_under("radio.sinr", "sim.report_tick"),
        "radio.sinr_exec_s": spans.total_under("radio.sinr", "sim.exec_track"),
        "radio.shadow_lookups": c("radio.shadow_lookups"),
        "radio.shadow_lookups_per_report": _ratio(c("radio.shadow_lookups"), reports),
        "radio.shadow_redraws": c("radio.shadow_redraws"),
        "radio.nearest_s": spans.total("radio.nearest"),
        "kalman.observe_s": spans.total("kalman.observe"),
        "kalman.observe_calls": spans.calls("kalman.observe"),
        "kalman.evict_s": spans.total("kalman.evict"),
        "kalman.live_streams_peak": c("kalman.live_streams_peak"),
        "kalman.evicted": c("kalman.evicted"),
        "policies.observe_s": spans.total("policies.observe"),
        "policies.decide_s": spans.total("policies.decide"),
        "policies.decide_calls": spans.calls("policies.decide"),
        "policies.decisions": c("policies.decisions"),
        "rl.select_target_s": spans.total("rl.select_target"),
        "rl.choose_pair_calls": c("rl.choose_pair_calls"),
        "rl.explore_draws": c("rl.explore_draws"),
        "rl.explore_fraction": _ratio(c("rl.explore_draws"), c("rl.choose_pair_calls")),
        "engine.report_s": spans.total("engine.report"),
        "engine.ttt_started": c("engine.ttt_started"),
        "engine.ttt_reset": c("engine.ttt_reset"),
        "engine.ho_fired": c("engine.ho_fired"),
        "engine.fired_per_started": _ratio(c("engine.ho_fired"), c("engine.ttt_started")),
        "engine.ho_success": c("engine.ho_success"),
        "engine.success_fraction": _ratio(c("engine.ho_success"), c("engine.ho_completed")),
        "metrics.sample_s": spans.total("metrics.sample"),
        "metrics.csv_write_s": spans.total("metrics.csv_write"),
        "config.load_s": spans.total("config.load"),
    }


def _kpi_sum(run: ChildRun, column: str) -> int:
    return sum(int(row[column]) for row in run.kpi_rows)


class Invocation:
    """One benchmark invocation: its runs, checks and metrics."""

    def __init__(self, wl: Workload, seed: int, seconds: float):
        self.wl, self.seed, self.seconds = wl, seed, seconds
        self.out = OUT_ROOT / f"{wl.name}-{seed}-{os.getpid()}"
        self.runs: list[ChildRun] = []
        self.setups: list[dict] = []
        self.problems: list[str] = []

    def child(self, mode: str, jobs: int | None = None) -> ChildRun:
        run = run_child(self.wl, self.seed, mode, self.out / str(len(self.runs)), jobs)
        self.runs.append(run)
        return run

    def end_to_end(self) -> dict[str, float]:
        start = time.perf_counter()
        # The first probe only warms bytecode and file caches.  The rest are
        # spread between the runs, so both see the same spells of machine load.
        self.setups = [setup_probe(self.wl, self.seed)]
        reports = self.setups[0]["reports_per_run"] * self.wl.n_runs
        laps = []
        while True:
            lap = time.perf_counter()
            self.setups += [setup_probe(self.wl, self.seed) for _ in range(SETUP_PROBES_PER_RUN)]
            self.child("none")
            laps.append(time.perf_counter() - lap)
            if len(self.runs) >= MIN_RUNS and time.perf_counter() - start + _median(laps) > self.seconds:
                break
        check_digests(self.runs, stored_digests(self.wl, self.seed))
        speed = self.speed()
        wall = statistics.mean(r.wall_s for r in self.runs) * speed
        return {
            "wall_s": wall,
            "reports_per_s": reports / wall,
            "setup_s": _median(s["setup_s"] for s in self.setups[1:]) * speed,
            "peak_rss_mb": _median(r.result.get("peak_rss_kb", 0) / 1024.0 for r in self.runs),
            "ok_fraction": 1.0 - self.failed / self.attempted,
        }

    def speed(self) -> float:
        """Host speed relative to the reference, from the calibration loops.

        Below 1 while the host runs this benchmark slower than the reference
        host did; multiplying a time by it gives reference-host seconds.
        A mean, like the mean wall it scales: a run lasts seconds and so
        averages over the host's fast and slow spells, while a single
        calibration loop lands in one of them.
        """
        return CAL_REF_S / statistics.mean(s["cal_s"] for s in self.setups[1:])

    def per_layer(self) -> dict[str, float]:
        wl = self.wl
        self.setups = [setup_probe(wl, self.seed)]
        reports = self.setups[0]["reports_per_run"] * wl.n_runs
        pool_run = self.child("runs") if wl.jobs > 1 else None
        # Spans recorded in pool workers would be lost, so traced runs use one
        # job; each is paired with an untraced one-job run for the overhead.
        untraced, traced = [], []
        for _ in range(TRACED_RUNS):
            untraced.append(self.child("runs", jobs=1))
            traced.append(self.child("layers", jobs=1))
        check_digests(self.runs, stored_digests(wl, self.seed))
        if not all(r.ok for r in self.runs):
            return {}
        per_run = []
        for run in traced:
            spans = Spans(run.spans)
            counters = run.result["counters"]
            per_run.append((layer_metrics(spans, counters, reports), {**counters, **spans.call_counts()}))
            self._check_counts(run, spans, reports)
        if any(counts != per_run[0][1] for _, counts in per_run[1:]):
            self.problems.append("traced counters differ between traced runs")
        # Counts repeat exactly (checked above); times are medians over the traced runs.
        metrics = {
            k: v if isinstance(v, int) else _median(m[k] for m, _ in per_run)
            for k, v in per_run[0][0].items()
        }
        pool_s = Spans(pool_run.spans).total("cli.pool") if pool_run else 0.0
        run_s = _median(Spans(r.spans).total("sim.run") for r in untraced)
        metrics["cli.pool_wall_s"] = pool_s
        metrics["cli.parallel_efficiency"] = _ratio(run_s, wl.jobs * pool_s)
        metrics["trace.overhead_s"] = _median(r.wall_s for r in traced) - _median(r.wall_s for r in untraced)
        return metrics

    def _check_counts(self, run: ChildRun, spans: Spans, reports: int) -> None:
        """Tie the traced counters to the workload and to the CSVs the run wrote."""
        counters = run.result["counters"]
        checks = [
            ("sim.run spans", spans.calls("sim.run"), self.wl.n_runs),
            ("radio.report calls", spans.calls("radio.report"), reports),
            ("handovers completed", counters.get("engine.ho_completed", 0), _kpi_sum(run, "ho_decisions")),
            ("handover successes", counters.get("engine.ho_success", 0), _kpi_sum(run, "ho_successes")),
        ]
        if self.wl.command == "run":
            checks.append(("events.csv rows", run.event_rows, _kpi_sum(run, "ho_decisions")))
        if "lim2" not in self.wl.policies:
            checks.append(("kalman.observe calls", spans.calls("kalman.observe"), 0))
        for what, got, want in checks:
            if got != want:
                self.problems.append(f"{what}: {got}, expected {want}")

    @property
    def attempted(self) -> int:
        return len(self.runs)

    @property
    def failed(self) -> int:
        return sum(not r.ok for r in self.runs)

    def context(self, trace: bool) -> dict:
        import numpy as np

        return {
            "workload": self.wl.name,
            "seed": self.seed,
            "trace": trace,
            "command": ["hosim", *self.wl.argv(self.seed, "OUT")],
            "scenario": self.wl.scenario,
            "overrides": list(self.wl.overrides),
            "policies": list(self.wl.policies),
            "jobs": self.wl.jobs,
            "hosim_runs_per_process": self.wl.n_runs,
            "processes": len(self.runs),
            "walls_s": [r.wall_s for r in self.runs],
            "setup_s": [s["setup_s"] for s in self.setups],
            "cal_s": [s["cal_s"] for s in self.setups],
            "speed": self.speed() if len(self.setups) > 1 else None,
            "digests": "stored" if stored_digests(self.wl, self.seed) else "first run",
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "git_rev": git_rev(),
            "src_sha256": source_digest(),
        }


def git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def source_digest() -> str:
    """sha256 over the program's source and scenarios, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "scenarios").glob("*.ini")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def preflight(wl: Workload) -> dict:
    for path in (SPEC, ROOT / "src" / "hosim" / "cli.py", ROOT / wl.scenario):
        if not path.is_file():
            raise BenchError(f"{path.relative_to(ROOT)} not found; run from a hosim checkout")
    return json.loads(SPEC.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    wl = WORKLOADS[args.workload]
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        spec = preflight(wl)
        inv = Invocation(wl, args.seed, args.seconds)
        try:
            values = inv.per_layer() if args.trace else inv.end_to_end()
        finally:
            shutil.rmtree(inv.out, ignore_errors=True)
            try:
                OUT_ROOT.rmdir()
            except OSError:
                pass
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for run in inv.runs:
        for problem in run.problems:
            print(f"{wl.name}: failed run: {problem}", file=sys.stderr)
    for problem in inv.problems:
        print(f"{wl.name}: check failed: {problem}", file=sys.stderr)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if values and m["name"] not in values]
    if missing:
        raise KeyError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"{wl.name} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"context": inv.context(bool(args.trace))}))
    correct = inv.failed == 0 and not inv.problems and bool(values)
    print(json.dumps({"correct": correct, "attempted": inv.attempted, "failed": inv.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
