"""Per-UE handover state machine: trigger evaluation, TTT timing,
decision, and execution with latency / failure / ping-pong accounting.

The A3 condition compares dBm-scale levels, one per reported cell, that
the active policy's ``observe`` returns for each report (raw
measurements for fixed policies, filtered posterior estimates for the
learning policy), with the hysteresis applied in dB; the policy's
``decide`` only proposes a target and a pair.  A decision fires at the
first report where the condition has held continuously for the chosen
TTT; any violating report resets the timer.  Execution detaches the UE
for a fixed signaling window plus one report period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .radio import MeasurementReport
from .rl import ParamPair

EXEC_LATENCY_S = 0.050
PING_PONG_WINDOW_S = 1.0
QOUT_SINR_DB = -8.0
MIN_ACCESS_RSRP_DBM = -110.0

IDLE = "idle"
TIMING = "timing"
EXECUTING = "executing"


def _a3_holds(srv_level: float, tgt_level: float, hyst_db: float) -> bool:
    """A3: the target level exceeds the serving level by more than the hysteresis."""
    if not (math.isfinite(srv_level) and math.isfinite(tgt_level)):
        raise ValueError("levels must be finite")
    return tgt_level > srv_level + hyst_db


@dataclass
class PolicyDecision:
    """A policy's per-report proposal: the target cell and the (TTT,
    hysteresis) pair to judge it with."""

    target: int
    pair: ParamPair


class Policy:
    """Interface the engine drives; implementations live in policies.py."""

    def observe(self, report: MeasurementReport) -> dict[int, float]:
        """Ingest a report; return the A3 level of every reported cell."""
        raise NotImplementedError

    def decide(self, report: MeasurementReport, levels: dict[int, float], now: float) -> PolicyDecision | None:
        """Propose a reported target and a pair, or None to abstain."""
        raise NotImplementedError


@dataclass(slots=True)
class HandoverOutcome:
    ue: int
    source: int
    target: int
    decision_time: float
    complete_time: float
    latency: float
    result: str  # "success" | "failure"
    ping_pong: bool
    ttt_ms: int = 0
    hyst_db: int = 0


@dataclass(slots=True)
class HandoverContext:
    """Attachment and trigger/decision/execution state for one UE.

    ``exec_failed`` is set once the executing window's serving SINR dips
    below Qout (``QOUT_SINR_DB``): the window has failed, whatever its
    later samples read.
    """

    ue: int
    serving: int
    phase: str = IDLE
    target: int | None = None
    pair: ParamPair | None = None
    episode_start: float | None = None
    decision_time: float | None = None
    exec_deadline: float | None = None
    exec_failed: bool = False
    last_serving: int | None = None
    last_ho_time: float = -math.inf

    def reset_timing(self) -> None:
        self.phase = IDLE
        self.target = None
        self.pair = None
        self.episode_start = None


def on_measurement_report(
    ctx: HandoverContext,
    report: MeasurementReport,
    levels: dict[int, float],
    policy: Policy,
    now: float,
    report_period_s: float,
) -> bool:
    """Advance the per-UE state machine by one report.

    Returns True when a handover decision fires at this report.  While
    idle, the policy proposes a (target, pair); while a timing episode
    runs, the pair chosen at its start stays pinned.  Either way the A3
    condition is judged here, on the serving cell's and the target's
    entries in ``levels``, the mapping the policy's ``observe`` returned
    for this report: a violation (or the target dropping out of the
    report) resets to idle, and the next satisfying report starts a
    fresh episode with a fresh policy choice.
    """
    if ctx.ue != report.ue:
        raise ValueError("report routed to the wrong context")
    if ctx.phase == EXECUTING:
        return False

    if ctx.phase == IDLE:
        if not report.neighbors:
            return False
        decision = policy.decide(report, levels, now)
        if decision is None:
            return False
        if decision.target not in levels:
            raise ValueError(f"policy chose target {decision.target} absent from the report")
        target, pair = decision.target, decision.pair
    else:
        target, pair = ctx.target, ctx.pair

    tgt_level = levels.get(target)
    if tgt_level is None or not _a3_holds(levels[report.serving.cell], tgt_level, pair.hyst_db):
        ctx.reset_timing()
        return False
    if ctx.phase == IDLE:
        ctx.phase = TIMING
        ctx.target = target
        ctx.pair = pair
        ctx.episode_start = now
    # Nanosecond-scale slack absorbs float rounding in report times so the
    # decision fires exactly at the first report past the window (at once
    # for a zero TTT).
    if (now - ctx.episode_start) * 1e3 >= pair.ttt_ms - 1e-6:
        ctx.phase = EXECUTING
        ctx.decision_time = now
        # One report period of decision signaling plus the interruption window.
        ctx.exec_deadline = now + report_period_s + EXEC_LATENCY_S
        ctx.exec_failed = False
        return True
    return False


def note_execution_sinr(ctx: HandoverContext, sinr_db: float) -> None:
    """Fail the executing window if its serving SINR sample is below Qout."""
    if ctx.phase == EXECUTING and sinr_db < QOUT_SINR_DB:
        ctx.exec_failed = True


def complete_handover(
    ctx: HandoverContext,
    now: float,
    target_rsrp_dbm: float,
) -> HandoverOutcome:
    """Finish an execution window and classify the outcome.

    Failure when the serving SINR dipped below the outage threshold at
    any point of the window (too-late handover) or the target's true
    RSRP at completion is below the access floor (wrong cell).  A
    success back to the immediately previous cell within 1 s is a
    ping-pong.  A success attaches the UE to the target; a failure
    leaves it on its serving cell.
    """
    if ctx.phase != EXECUTING:
        raise ValueError("no handover execution in progress")
    if now < ctx.exec_deadline - 1e-9:
        raise ValueError("execution window has not elapsed")
    source, target = ctx.serving, ctx.target
    pair = ctx.pair
    complete_time = ctx.exec_deadline
    latency = complete_time - ctx.decision_time
    failed = ctx.exec_failed or target_rsrp_dbm < MIN_ACCESS_RSRP_DBM
    ping_pong = (
        not failed
        and target == ctx.last_serving
        and (complete_time - ctx.last_ho_time) < PING_PONG_WINDOW_S
    )
    if not failed:
        ctx.last_serving, ctx.serving = source, target
        ctx.last_ho_time = complete_time
    outcome = HandoverOutcome(
        ue=ctx.ue,
        source=source,
        target=target,
        decision_time=ctx.decision_time,
        complete_time=complete_time,
        latency=latency,
        result="failure" if failed else "success",
        ping_pong=ping_pong,
        ttt_ms=pair.ttt_ms,
        hyst_db=pair.hyst_db,
    )
    ctx.reset_timing()
    ctx.decision_time = None
    ctx.exec_deadline = None
    ctx.exec_failed = False
    return outcome
