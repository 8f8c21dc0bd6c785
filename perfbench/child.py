"""One measured hosim process, started by run.py.

    python3 perfbench/child.py setup SPEC_JSON
    python3 perfbench/child.py run {none|runs|layers} SPANS_PATH -- HOSIM_ARGS...

``setup`` times what every run pays before its first step: importing
hosim (and numpy), ``config.load_scenario`` and ``Simulation()``
construction; it then times a fixed calibration loop.  ``run`` calls ``hosim.cli.main`` exactly as the ``hosim``
console script does, optionally under the tracer, and writes spans to
SPANS_PATH.  Either mode prints one JSON line last on stdout.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import resource
import sys
import time


def _check_source(module) -> None:
    # Benchmark the checkout's own source, never an installed copy.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(module.__file__).startswith(src + os.sep):
        raise SystemExit(f"hosim imported from {module.__file__}, not from {src}")


def _peak_rss_kb() -> int:
    # Children covers pool workers, which the pool has joined by now.
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def setup(spec: dict) -> dict:
    start = time.perf_counter()
    import hosim.cli  # the import a CLI run pays, numpy included
    from hosim import config, sim

    _check_source(hosim.cli)
    scenario = config.load_scenario(spec["scenario"], spec["overrides"])
    scenario = dataclasses.replace(scenario, **spec["fields"])
    sim.Simulation(scenario)
    setup_s = time.perf_counter() - start
    return {
        "setup_s": setup_s,
        "reports_per_run": reports_per_run(scenario),
        "cal_s": calibrate(),
    }


def calibrate() -> float:
    """Time a fixed piece of work that does not involve hosim.

    The mix (tuple-keyed dict updates, float math, 2x2 numpy solves and
    dict scans) resembles the simulator's, so spells in which the host
    runs this process slower slow both alike.
    """
    import numpy as np

    start = time.perf_counter()
    table: dict[tuple[int, int], float] = {}
    eye = np.eye(2)
    ones = np.ones(2)
    total = 0.0
    for i in range(100_000):
        key = (i % 3000, i % 7)
        table[key] = table.get(key, 0.0) + math.hypot(i, 3.0)
        if i % 10 == 0:
            total += float(np.linalg.solve(eye, ones)[0])
    for _ in range(25):
        total += sum(1 for v in table.values() if v > 1.0)
    return time.perf_counter() - start


def reports_per_run(scenario) -> int:
    """Measurement reports one run simulates: every UE at every report tick."""
    n_steps = round(scenario.sim_duration_s / scenario.step_s)
    every = round(scenario.report_period_s / scenario.step_s)
    return scenario.n_sites * scenario.n_ues_per_cell * -(-n_steps // every)


def run(mode: str, spans_path: str, argv: list[str]) -> dict:
    import hosim.cli

    _check_source(hosim.cli)
    tracer = None
    if mode != "none":
        import tracer as tracing

        tracer = tracing.Tracer()
        if mode == "runs":
            tracing.install_run_spans(tracer)
        else:
            tracing.install_layer_spans(tracer)
        root = tracer.open("cli.main")
    code = hosim.cli.main(argv)
    result = {"exit": code}
    if tracer is not None:
        tracer.close(root)
        tracer.save(spans_path)
        result["counters"] = tracer.counters
    result["peak_rss_kb"] = _peak_rss_kb()
    return result


def main(args: list[str]) -> int:
    if args[:1] == ["setup"]:
        result = setup(json.loads(args[1]))
        code = 0
    elif args[:1] == ["run"] and len(args) >= 4 and args[3] == "--":
        result = run(args[1], args[2], args[4:])
        code = result["exit"]
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
