"""Outside-in tracing of one hosim process.

The tracer replaces, for the life of the process, the attribute each
caller looks up at call time (a module function or a class method) with
a wrapper that records a span and, at a few boundaries, exact counters.
Nothing under ``src/`` changes: a name imported into another module with
``from x import y`` is wrapped where that module looks it up.

Spans are kept in memory as parallel arrays (name, start, end, parent,
run id) and written to one ``.npz`` file when the traced call returns.
Counters count simulated work and repeat exactly for a fixed
(scenario, seed).
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

NO_PARENT = -1
NO_RUN = -1


class Tracer:
    """Span store plus counters for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("q")
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._run_id = NO_RUN
        self._runs = 0

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        index = len(self.start)
        self.name_id.append(self._nid(name))
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.run.append(self._run_id)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def peak(self, name: str, value: int) -> None:
        if value > self.counters.get(name, 0):
            self.counters[name] = value

    def begin_run(self) -> int:
        self._run_id = self._runs
        self._runs += 1
        return self._run_id

    def end_run(self) -> None:
        self._run_id = NO_RUN

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.array(self.name_id, dtype=np.int32),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
            parent=np.array(self.parent, dtype=np.int64),
            run=np.array(self.run, dtype=np.int64),
        )


def _span(tracer: Tracer, name: str, fn, before=None, after=None):
    """Wrap fn in a span; before(args) -> token, after(args, result, token)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = before(args) if before is not None else None
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(args, result, token)
        return result

    return wrapper


def _counted(fn, before, after):
    """Wrap fn without a span, only to count; same hooks as _span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = before(args)
        result = fn(*args, **kwargs)
        after(args, result, token)
        return result

    return wrapper


def _patch(owner, attr: str, make) -> None:
    setattr(owner, attr, make(getattr(owner, attr)))


def install_run_spans(tracer: Tracer) -> None:
    """Spans around each simulated run and the sweep's process pool only.

    Cheap enough to leave the run's timing unchanged; used for the
    untraced reference runs that trace-overhead and parallel-efficiency
    figures are taken against.
    """
    import hosim.cli
    import hosim.sim

    def begin(args):
        return tracer.begin_run()

    def end(args, result, token):
        tracer.end_run()

    _patch(hosim.sim, "run", lambda fn: _span(tracer, "sim.run", fn, begin, end))

    pool_cls = hosim.cli.ProcessPoolExecutor

    class TracedPool(pool_cls):
        def __enter__(self):
            self._bench_span = tracer.open("cli.pool")
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.close(self._bench_span)

    hosim.cli.ProcessPoolExecutor = TracedPool


def install_layer_spans(tracer: Tracer) -> None:
    """Spans and counters at every layer boundary a run crosses."""
    from hosim import config, engine, kalman, metrics, policies, radio, sim

    install_run_spans(tracer)

    span = lambda name, before=None, after=None: (lambda fn: _span(tracer, name, fn, before, after))

    _patch(config, "load_scenario", span("config.load"))
    _patch(metrics, "write_csv_atomic", span("metrics.csv_write"))
    _patch(metrics.MetricsAccumulator, "add_sample", span("metrics.sample"))

    for attr, name in (
        ("__init__", "sim.construct"),
        ("step", "sim.step"),
        ("_complete_due_handovers", "sim.complete"),
        ("_report_tick", "sim.report_tick"),
        ("_track_execution_sinr", "sim.exec_track"),
        ("_advance_positions", "sim.mobility"),
    ):
        _patch(sim.Simulation, attr, span(name))

    env = radio.RadioEnvironment
    _patch(env, "generate_report", span("radio.report"))
    _patch(env, "sinr_of", span("radio.sinr"))
    _patch(env, "nearest_cell", span("radio.nearest"))

    def shadow_state(args):
        return args[0]._shadow.get((args[1], args[2]))

    def shadow_after(args, result, before_state):
        # A lookup that stores a new state object drew a fresh value.
        tracer.count("radio.shadow_lookups")
        if args[0]._shadow.get((args[1], args[2])) is not before_state:
            tracer.count("radio.shadow_redraws")

    _patch(env, "shadowing_db", lambda fn: _counted(fn, shadow_state, shadow_after))

    def live(args):
        return len(args[0]._states)

    def observe_after(args, result, token):
        tracer.peak("kalman.live_streams_peak", len(args[0]._states))

    def evict_after(args, result, live_before):
        tracer.count("kalman.evicted", live_before - len(args[0]._states))

    _patch(kalman.KalmanStreams, "observe", span("kalman.observe", after=observe_after))
    _patch(kalman.KalmanStreams, "_evict", span("kalman.evict", before=live, after=evict_after))

    def decide_after(args, result, token):
        if result is not None:
            tracer.count("policies.decisions")

    policy_classes = [engine.Policy] + [
        c for c in vars(policies).values()
        if isinstance(c, type) and issubclass(c, engine.Policy) and c is not engine.Policy
    ]
    for cls in policy_classes:
        if "observe" in vars(cls):
            _patch(cls, "observe", span("policies.observe"))
        if "decide" in vars(cls) and cls is not engine.Policy:
            _patch(cls, "decide", span("policies.decide", after=decide_after))

    _patch(policies, "select_target", span("rl.select_target"))

    def pair_after(args, result, token):
        tracer.count("rl.choose_pair_calls")
        if result[1]:
            tracer.count("rl.explore_draws")

    _patch(policies, "choose_param_pair", span("rl.choose_pair", after=pair_after))

    def phase(args):
        return args[0].phase

    def report_after(args, result, before):
        after = args[0].phase
        if before == engine.IDLE and after != engine.IDLE:
            tracer.count("engine.ttt_started")
        if before == engine.TIMING and after == engine.IDLE:
            tracer.count("engine.ttt_reset")
        if after == engine.EXECUTING and before != engine.EXECUTING:
            tracer.count("engine.ho_fired")

    _patch(engine, "on_measurement_report", span("engine.report", before=phase, after=report_after))

    def complete_after(args, outcome, token):
        tracer.count("engine.ho_completed")
        if outcome.result == "success":
            tracer.count("engine.ho_success")

    _patch(engine, "complete_handover", span("engine.complete", after=complete_after))
