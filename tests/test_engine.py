"""Trigger predicates, TTT timer semantics, and execution outcomes."""

import math

import pytest

from hosim import engine
from hosim.engine import (
    EXEC_LATENCY_S,
    MIN_ACCESS_RSRP_DBM,
    QOUT_SINR_DB,
    HandoverContext,
    Policy,
    PolicyDecision,
    _a3_holds,
    complete_handover,
    note_execution_sinr,
    on_measurement_report,
)
from hosim.policies import FixedA3Policy, make_policy
from hosim.radio import MeasurementEntry, MeasurementReport
from hosim.rl import TTT_VALUES_MS, ParamPair
from hosim.sim import Scenario

REPORT_PERIOD = 0.040


class ScriptedPolicy(Policy):
    """Proposes cell 1 and returns externally scripted dBm levels for cells
    0 (serving) and 1; counts its decide calls."""

    def __init__(self, pair: ParamPair):
        self.pair = pair
        self.levels = {0: -90.0, 1: -90.0}
        self.decide_calls = 0

    def observe(self, report):
        cells = (report.serving.cell, *(n.cell for n in report.neighbors))
        return {cell: self.levels[cell] for cell in cells if cell in self.levels}

    def decide(self, report, levels, now):
        self.decide_calls += 1
        return PolicyDecision(target=1, pair=self.pair)


def on_report(ctx, report, policy, now):
    """One report through the policy's observe and then the engine."""
    return on_measurement_report(ctx, report, policy.observe(report), policy, now, REPORT_PERIOD)


def make_report(ue=1, t=0.0, neighbor_cells=(1,)):
    serving = MeasurementEntry(0, -90.0, -11.0)
    neighbors = tuple(MeasurementEntry(c, -92.0, -13.0) for c in neighbor_cells)
    return MeasurementReport(ue, t, serving, neighbors, -100.0)


def drive(ctx, policy, level_pairs, start=0.0):
    """Feed one report per (srv, tgt) level pair; return decision times."""
    decisions = []
    for i, (srv, tgt) in enumerate(level_pairs):
        now = start + i * REPORT_PERIOD
        policy.levels = {0: srv, 1: tgt}
        if ctx.phase != engine.EXECUTING:
            if on_report(ctx, make_report(t=now), policy, now):
                decisions.append(now)
    return decisions


class TestEvaluateTrigger:
    """The A3 entry condition: target above serving by more than the hysteresis."""

    def test_a3_boundary_is_strict(self):
        assert not _a3_holds(-90.0, -87.0, 3)
        assert _a3_holds(-90.0, -86.9, 3)

    def test_a3_zero_offset(self):
        assert _a3_holds(-90.0, -89.9, 0)
        assert not _a3_holds(-90.0, -90.0, 0)

    def test_non_finite_levels_rejected(self):
        with pytest.raises(ValueError):
            _a3_holds(float("nan"), -90.0, 0)
        with pytest.raises(ValueError):
            _a3_holds(-90.0, float("inf"), 0)


class TestTttTiming:
    @pytest.mark.parametrize("ttt_ms", TTT_VALUES_MS)
    def test_decision_fires_at_first_report_past_ttt(self, ttt_ms):
        ctx = HandoverContext(1, 0)
        policy = ScriptedPolicy(ParamPair(ttt_ms, 0))
        n_reports = ttt_ms // 40 + 4
        stream = [(-90.0, -85.0)] * n_reports
        decisions = drive(ctx, policy, stream)
        assert len(decisions) == 1
        t0 = 0.0
        expected = math.ceil(ttt_ms / 1000.0 / REPORT_PERIOD) * REPORT_PERIOD
        assert decisions[0] == pytest.approx(t0 + expected, abs=1e-12)

    @pytest.mark.parametrize("ttt_ms", [64, 100, 256])
    def test_single_violation_restarts_timer(self, ttt_ms):
        ctx = HandoverContext(1, 0)
        policy = ScriptedPolicy(ParamPair(ttt_ms, 0))
        good = (-90.0, -85.0)
        bad = (-90.0, -95.0)
        reports_needed = math.ceil(ttt_ms / 40.0)
        stream = [good] * (reports_needed - 1) + [bad] + [good] * (reports_needed + 2)
        decisions = drive(ctx, policy, stream)
        assert len(decisions) == 1
        violation_t = (reports_needed - 1) * REPORT_PERIOD
        restart_t = violation_t + REPORT_PERIOD
        expected = restart_t + math.ceil(ttt_ms / 1000.0 / REPORT_PERIOD) * REPORT_PERIOD
        assert decisions[0] == pytest.approx(expected, abs=1e-12)

    def test_zero_ttt_fires_immediately(self):
        ctx = HandoverContext(1, 0)
        policy = ScriptedPolicy(ParamPair(0, 0))
        decisions = drive(ctx, policy, [(-90.0, -85.0)])
        assert decisions == [0.0]

    def test_condition_never_true_stays_idle(self):
        ctx = HandoverContext(1, 0)
        policy = ScriptedPolicy(ParamPair(40, 3))
        decisions = drive(ctx, policy, [(-90.0, -91.0)] * 100)
        assert decisions == []
        assert ctx.phase == engine.IDLE

    def test_proposed_target_failing_a3_starts_no_episode(self):
        # The policy proposes cell 1 at every report; its levels put cell 1
        # within the hysteresis, so no report may start a timing episode.
        ctx = HandoverContext(1, 0)
        policy = ScriptedPolicy(ParamPair(0, 3))
        for i in range(10):
            now = i * REPORT_PERIOD
            policy.levels = {0: -90.0, 1: -87.0}
            assert not on_report(ctx, make_report(t=now), policy, now)
            assert ctx.phase == engine.IDLE
            assert policy.decide_calls == i + 1

    def test_larger_hysteresis_never_decides_earlier(self):
        ramp = [(-90.0, -90.0 + 0.2 * i) for i in range(80)]
        times = {}
        for hyst in (0, 3, 6):
            ctx = HandoverContext(1, 0)
            policy = ScriptedPolicy(ParamPair(160, hyst))
            decisions = drive(ctx, policy, ramp)
            times[hyst] = decisions[0] if decisions else math.inf
        assert times[0] <= times[3] <= times[6]

    def test_empty_neighbor_list_skips_evaluation(self):
        ctx = HandoverContext(1, 0)
        policy = ScriptedPolicy(ParamPair(0, 0))
        policy.levels = {0: -90.0, 1: -80.0}
        report = MeasurementReport(1, 0.0, MeasurementEntry(0, -90.0, -11.0), (), -100.0)
        assert not on_report(ctx, report, policy, 0.0)
        assert ctx.phase == engine.IDLE
        assert policy.decide_calls == 0

    def test_greedy_rsrp_fires_at_first_report_satisfying_a3(self):
        policy = make_policy(Scenario(policy="greedy_rsrp"))
        assert isinstance(policy, FixedA3Policy)
        assert policy.pair == ParamPair(0, 0)
        ctx = HandoverContext(1, 0)
        # make_report puts the neighbour 2 dB below the serving cell.
        assert not on_report(ctx, make_report(t=0.0), policy, 0.0)
        assert ctx.phase == engine.IDLE
        report = MeasurementReport(1, 0.04, MeasurementEntry(0, -90.0, -11.0),
                                   (MeasurementEntry(1, -89.9, -13.0),), -100.0)
        assert on_report(ctx, report, policy, 0.04)
        assert (ctx.phase, ctx.target) == (engine.EXECUTING, 1)

    def test_pinned_target_missing_from_report_resets(self):
        ctx = HandoverContext(1, 0)
        policy = ScriptedPolicy(ParamPair(256, 0))
        policy.levels = {0: -90.0, 1: -85.0}
        on_report(ctx, make_report(t=0.0), policy, 0.0)
        assert ctx.phase == engine.TIMING
        report_without_target = make_report(t=0.04, neighbor_cells=(2,))
        on_report(ctx, report_without_target, policy, 0.04)
        assert ctx.phase == engine.IDLE

    def test_wrong_ue_rejected(self):
        ctx = HandoverContext(2, 0)
        with pytest.raises(ValueError):
            on_report(ctx, make_report(ue=1), ScriptedPolicy(ParamPair(0, 0)), 0.0)

    def test_absent_target_from_policy_rejected(self):
        class BadPolicy(ScriptedPolicy):
            def decide(self, report, levels, now):
                return PolicyDecision(target=9, pair=self.pair)

        ctx = HandoverContext(1, 0)
        with pytest.raises(ValueError):
            on_report(ctx, make_report(), BadPolicy(ParamPair(0, 0)), 0.0)


def decide_now(ctx, now=0.0):
    policy = ScriptedPolicy(ParamPair(0, 0))
    policy.levels = {0: -90.0, 1: -85.0}
    assert on_report(ctx, make_report(ue=ctx.ue, t=now), policy, now)


class TestCompletion:
    def test_successful_handover(self):
        ctx = HandoverContext(1, 0)
        decide_now(ctx)
        note_execution_sinr(ctx, 5.0)
        outcome = complete_handover(ctx, ctx.exec_deadline, target_rsrp_dbm=-85.0)
        assert outcome.result == "success"
        assert not outcome.ping_pong
        assert outcome.latency == pytest.approx(REPORT_PERIOD + EXEC_LATENCY_S)
        assert ctx.phase == engine.IDLE
        # A success attaches the UE to the target and remembers the old cell.
        assert (outcome.source, outcome.target) == (0, 1)
        assert (ctx.serving, ctx.last_serving) == (1, 0)

    def test_latency_matches_complete_minus_decision(self):
        ctx = HandoverContext(1, 0)
        decide_now(ctx, now=1.0)
        outcome = complete_handover(ctx, 1.0 + REPORT_PERIOD + EXEC_LATENCY_S, -85.0)
        assert outcome.latency == pytest.approx(outcome.complete_time - outcome.decision_time)

    def test_outage_during_execution_fails(self):
        ctx = HandoverContext(1, 0)
        decide_now(ctx)
        note_execution_sinr(ctx, QOUT_SINR_DB - 0.1)
        outcome = complete_handover(ctx, ctx.exec_deadline, -85.0)
        assert outcome.result == "failure"
        # A failure leaves the UE on its serving cell.
        assert (outcome.source, outcome.target) == (0, 1)
        assert (ctx.serving, ctx.last_serving) == (0, None)

    def test_weak_target_fails(self):
        ctx = HandoverContext(1, 0)
        decide_now(ctx)
        note_execution_sinr(ctx, 5.0)
        outcome = complete_handover(ctx, ctx.exec_deadline, MIN_ACCESS_RSRP_DBM - 1.0)
        assert outcome.result == "failure"

    def test_reciprocal_handover_within_window_is_ping_pong(self):
        ctx = HandoverContext(1, 0)
        decide_now(ctx, now=0.0)
        first = complete_handover(ctx, ctx.exec_deadline, target_rsrp_dbm=-85.0)
        assert first.target == 1 and first.result == "success"
        # Reverse decision 400 ms later, back to the previous serving cell.
        policy = ScriptedPolicy(ParamPair(0, 0))
        policy.levels = {0: -80.0, 1: -90.0}

        class ReversePolicy(ScriptedPolicy):
            def decide(self, report, levels, now):
                return PolicyDecision(target=0, pair=self.pair)

            def observe(self, report):
                return {0: -80.0, 1: -90.0}

        reverse = ReversePolicy(ParamPair(0, 0))
        serving = MeasurementEntry(1, -90.0, -13.0)
        report = MeasurementReport(1, 0.4, serving, (MeasurementEntry(0, -80.0, -11.0),), -100.0)
        assert on_report(ctx, report, reverse, 0.4)
        second = complete_handover(ctx, ctx.exec_deadline, target_rsrp_dbm=-80.0)
        assert second.ping_pong

    def test_reciprocal_after_window_is_not_ping_pong(self):
        ctx = HandoverContext(1, 0)
        decide_now(ctx, now=0.0)
        complete_handover(ctx, ctx.exec_deadline, target_rsrp_dbm=-85.0)

        class ReversePolicy(ScriptedPolicy):
            def decide(self, report, levels, now):
                return PolicyDecision(target=0, pair=self.pair)

            def observe(self, report):
                return {0: -80.0, 1: -90.0}

        reverse = ReversePolicy(ParamPair(0, 0))
        serving = MeasurementEntry(1, -90.0, -13.0)
        report = MeasurementReport(1, 2.0, serving, (MeasurementEntry(0, -80.0, -11.0),), -100.0)
        assert on_report(ctx, report, reverse, 2.0)
        second = complete_handover(ctx, ctx.exec_deadline, target_rsrp_dbm=-80.0)
        assert second.result == "success"
        assert not second.ping_pong

    def test_failed_handover_is_never_ping_pong(self):
        ctx = HandoverContext(1, 0)
        decide_now(ctx)
        note_execution_sinr(ctx, QOUT_SINR_DB - 5.0)
        outcome = complete_handover(ctx, ctx.exec_deadline, -85.0)
        assert outcome.result == "failure"
        assert not outcome.ping_pong

    def test_completion_requires_elapsed_window(self):
        ctx = HandoverContext(1, 0)
        decide_now(ctx)
        with pytest.raises(ValueError):
            complete_handover(ctx, ctx.exec_deadline - 0.01, -85.0)

    def test_completion_requires_execution_phase(self):
        with pytest.raises(ValueError):
            complete_handover(HandoverContext(1, 0), 1.0, -85.0)

    def test_reports_ignored_while_executing(self):
        ctx = HandoverContext(1, 0)
        decide_now(ctx)
        assert ctx.phase == engine.EXECUTING
        policy = ScriptedPolicy(ParamPair(0, 0))
        policy.levels = {0: -90.0, 1: -80.0}
        assert not on_report(ctx, make_report(t=0.04), policy, 0.04)
        assert ctx.phase == engine.EXECUTING
