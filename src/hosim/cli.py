"""Command-line front end.

Subcommands::

    run          one scenario run -> kpis.csv + events.csv
    sweep        speeds x seeds x policies -> sweep.csv (+ sweep_summary.csv)
    convergence  long run(s) -> convergence.csv (per-second loss rate)
    qtable       run and dump the learned Q-tables -> qtables.csv
    plot         render PNG charts from a sweep or convergence CSV

All outputs are written atomically (write-then-rename); a fixed
(scenario, seed) produces byte-identical files regardless of --jobs.
The default output root comes from $HOSIM_OUT, falling back to ./out.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys
from itertools import groupby
from operator import itemgetter

from . import config, metrics, sim
from .rl import qtable_rows
from .sim import ConfigError, Scenario

ENV_OUT_ROOT = "HOSIM_OUT"
# sweep_summary.csv's KPI columns: each (column stem, KpiRecord field) gives
# a ``<stem>_mean`` and a ``<stem>_stdev`` column over the runs of one
# (policy, speed).
SUMMARY_COLUMNS = (
    ("throughput", "mean_throughput_mbps"),
    ("plr", "plr"),
    ("failure_rate", "ho_failure_rate"),
    ("ping_pong", "ping_pong_rate"),
)


def __getattr__(name: str):
    """``ProcessPoolExecutor`` on first use (PEP 562), so a run that starts
    no workers never imports the process pool."""
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _make_out_dir(args) -> str:
    """Create the output directory and return its path: once the input is
    checked, so bad input leaves no directory, and before the first run."""
    out = args.out or os.environ.get(ENV_OUT_ROOT) or "out"
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError("out", f"cannot create {out}: {exc.strerror or exc}") from exc
    return out


def _parse_list(text: str, name: str, kind=float) -> list:
    """Parse '1,2,5' or, for ints, a half-open range 'a:b'.  An unparsable
    or empty list, or one that repeats a value, is a ConfigError naming
    the flag."""
    try:
        if kind is int and ":" in text:
            lo, hi = text.split(":", 1)
            values = list(range(int(lo), int(hi)))
        else:
            values = [kind(v) for v in text.split(",") if v]
    except ValueError as exc:
        raise ConfigError(name, f"cannot parse {text!r}") from exc
    if not values:
        raise ConfigError(name, f"{text!r} lists no values")
    if len(set(values)) != len(values):
        raise ConfigError(name, f"{text!r} repeats a value")
    return values


def _load_scenario(args) -> Scenario:
    """The scenario file, ``--set`` applied, then each field flag given (stored under its key), validated."""
    given = {key: value for key, value in vars(args).items() if key in config.SECTIONS["sim"] and value is not None}
    scenario = dataclasses.replace(config.load_scenario(args.scenario, args.set), **given)
    scenario.validate()
    return scenario


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", help="scenario INI file (defaults to built-in defaults)")
    parser.add_argument("--set", action="append", default=[], metavar="SEC.KEY=VAL",
                        help="override any scenario field, repeatable")
    parser.add_argument("--out", help=f"output directory (default: ${ENV_OUT_ROOT} or ./out)")


class RunFailed(Exception):
    """A sweep run raised; the message names its (policy, speed, seed)."""


def _run_one(scenario: Scenario) -> tuple:
    """One sweep run through ``sim.run``, as a lone ``hosim run`` takes it."""
    try:
        result = sim.run(scenario)
    except Exception as exc:
        raise RunFailed(
            f"policy={scenario.policy} speed={scenario.ue_speed_kmh:g} seed={scenario.seed}: {exc}"
        ) from exc
    return (scenario.policy, scenario.ue_speed_kmh, scenario.seed, result.kpis)


def cmd_run(args) -> int:
    scenario = _load_scenario(args)
    out = _make_out_dir(args)
    result = sim.run(scenario)
    metrics.write_csv_atomic(
        os.path.join(out, "kpis.csv"),
        metrics.KPI_HEADER,
        [metrics.kpi_row(scenario.policy, scenario.seed, scenario.ue_speed_kmh, result.kpis)],
    )
    metrics.write_csv_atomic(
        os.path.join(out, "events.csv"),
        metrics.EVENT_HEADER,
        [metrics.event_row(o) for o in result.outcomes],
    )
    print(f"run complete: policy={scenario.policy} seed={scenario.seed} "
          f"throughput={result.kpis.mean_throughput_mbps:.3f} Mbps plr={result.kpis.plr:.4f} "
          f"handovers={result.kpis.ho_decisions} -> {out}")
    return 0


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError("jobs", "must be at least 1")
    base = config.load_scenario(args.scenario, args.set)
    seeds = _parse_list(args.seeds, "seeds", int)
    speeds = _parse_list(args.speeds, "speeds") if args.speeds else list(sim.SPEED_SET_KMH)
    policies = _parse_list(args.policies, "policies", str) if args.policies else list(sim.POLICIES)
    scenarios = [
        dataclasses.replace(base, policy=p, ue_speed_kmh=v, seed=s)
        for p in policies
        for v in speeds
        for s in seeds
    ]
    for scn in scenarios:
        scn.validate()
    out = _make_out_dir(args)
    # The pool starts every worker at its first submit, so never ask for
    # more workers than there are runs.
    workers = min(args.jobs, len(scenarios))
    try:
        if workers > 1:
            # Read off the module, not as a global: the name resolves through
            # __getattr__ until a caller replaces it.
            executor = getattr(sys.modules[__name__], "ProcessPoolExecutor")
            with executor(max_workers=workers) as pool:
                try:
                    results = list(pool.map(_run_one, scenarios))
                except RunFailed:
                    pool.shutdown(cancel_futures=True)
                    raise
        else:
            results = list(map(_run_one, scenarios))
    except RunFailed as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    results.sort(key=itemgetter(0, 1, 2))
    metrics.write_csv_atomic(
        os.path.join(out, "sweep.csv"),
        metrics.KPI_HEADER,
        [metrics.kpi_row(p, s, v, k) for (p, v, s, k) in results],
    )
    # The results are sorted, so the records of each (policy, speed) and
    # of each policy are consecutive, in seed order.
    summary_rows = []
    for (policy, speed), group in groupby(results, itemgetter(0, 1)):
        records = [k for *_, k in group]
        row = [policy, speed, len(records)]
        for _, name in SUMMARY_COLUMNS:
            values = [getattr(k, name) for k in records]
            row += (metrics.mean(values), metrics.sample_stdev(values))
        summary_rows.append(row)
    metrics.write_csv_atomic(
        os.path.join(out, "sweep_summary.csv"),
        ("policy", "speed_kmh", "n_runs",
         *(f"{stem}_{stat}" for stem, _ in SUMMARY_COLUMNS for stat in ("mean", "stdev"))),
        summary_rows,
    )
    cdf_rows = []
    for policy, group in groupby(results, itemgetter(0)):
        records = [k for *_, k in group]
        for name, values in (
            ("throughput_mbps", [k.mean_throughput_mbps for k in records]),
            ("ho_failure_rate", [k.ho_failure_rate for k in records]),
        ):
            cdf_rows.extend((policy, name, v, f) for v, f in metrics.cdf(values))
    metrics.write_csv_atomic(
        os.path.join(out, "sweep_cdf.csv"),
        ("policy", "metric", "value", "fraction"),
        cdf_rows,
    )
    print(f"sweep complete: {len(results)} runs -> {out}")
    return 0


def cmd_convergence(args) -> int:
    base = _load_scenario(args)
    scenarios = [dataclasses.replace(base, seed=seed) for seed in _parse_list(args.seeds, "seeds", int)]
    for scenario in scenarios:
        scenario.validate()
    out = _make_out_dir(args)
    rows = []
    for scenario in scenarios:
        result = sim.run(scenario)
        rows.extend((scenario.seed, t, plr) for t, plr in zip(result.plr_starts_s, result.kpis.plr_series))
    metrics.write_csv_atomic(os.path.join(out, "convergence.csv"), ("seed", "timestamp_s", "avg_plr"), rows)
    print(f"convergence complete: {len(scenarios)} run(s), {len(rows)} samples -> {out}")
    return 0


def cmd_qtable(args) -> int:
    scenario = _load_scenario(args)
    if scenario.policy != "lim2":
        raise ConfigError("sim.policy", "qtable dumps require the lim2 policy")
    out = _make_out_dir(args)
    result = sim.run(scenario)
    metrics.write_csv_atomic(
        os.path.join(out, "qtables.csv"),
        ("cell", "ttt_ms", "hyst_db", "q"),
        qtable_rows(result.qtables),
    )
    print(f"qtable dump complete: {sum(len(t.entries) for t in result.qtables.values())} entries -> {out}")
    return 0


def cmd_plot(args) -> int:
    from . import plot  # imported here so that simulation runs do not pay for it

    try:
        with open(args.csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except (OSError, UnicodeError, csv.Error) as exc:
        print(f"cannot read {args.csv}: {exc}", file=sys.stderr)
        return 1
    if not rows:
        print(f"no rows in {args.csv}", file=sys.stderr)
        return 1
    if "avg_plr" in rows[0]:
        name, chart, columns = "convergence.png", plot.convergence_chart, plot.CONVERGENCE_COLUMNS
    else:
        name, chart, columns = "sweep.png", plot.sweep_chart, plot.SWEEP_COLUMNS
    missing = [c for c in columns if c not in rows[0]]
    if missing:
        print(f"no column {missing[0]} in {args.csv}", file=sys.stderr)
        return 1
    try:
        rows = plot.parse_rows(rows, columns)
    except ValueError as exc:
        print(f"bad value in {args.csv}: {exc}", file=sys.stderr)
        return 1
    path = os.path.join(_make_out_dir(args), name)
    pixels, labels = chart(rows)
    with metrics.open_atomic(path, "wb") as fh:
        fh.write(plot.encode_png(pixels, labels))
    print(f"wrote {path}")
    for key, value in labels:
        print(f"  {key}: {value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hosim", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single scenario run")
    _add_common(p_run)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--speed", type=float, dest="ue_speed_kmh", help="UE speed in km/h")
    p_run.add_argument("--policy", choices=sim.POLICIES)
    p_run.add_argument("--duration", type=float, dest="sim_duration_s", help="run duration in seconds")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="speeds x seeds x policies sweep")
    _add_common(p_sweep)
    p_sweep.add_argument("--seeds", default="0:10", help="comma list or a:b range (default 0:10)")
    p_sweep.add_argument("--speeds", help="comma list of km/h (default the standard 7-value set)")
    p_sweep.add_argument("--policies", help="comma list (default all three)")
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel runs (default 1)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_conv = sub.add_parser("convergence", help="long run emitting per-second loss rate")
    _add_common(p_conv)
    p_conv.add_argument("--seeds", default="0", help="comma list or a:b range")
    p_conv.add_argument("--duration", type=float, dest="sim_duration_s", help="run duration in seconds (e.g. 120)")
    p_conv.set_defaults(func=cmd_convergence)

    p_qt = sub.add_parser("qtable", help="run and dump final Q-tables")
    _add_common(p_qt)
    p_qt.add_argument("--seed", type=int)
    p_qt.add_argument("--speed", type=float, dest="ue_speed_kmh")
    p_qt.add_argument("--duration", type=float, dest="sim_duration_s")
    p_qt.set_defaults(func=cmd_qtable)

    p_plot = sub.add_parser("plot", help="render charts from a CSV")
    p_plot.add_argument("csv", help="sweep.csv or convergence.csv")
    p_plot.add_argument("--out")
    p_plot.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
