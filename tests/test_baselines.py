"""Fixed-policy baselines: decision rules and ping-pong-by-construction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hosim import engine
from hosim.engine import HandoverContext, complete_handover, note_execution_sinr, on_measurement_report
from hosim.policies import FixedA3Policy, Lim2Policy, make_policy
from hosim.radio import MeasurementEntry, MeasurementReport
from hosim.rl import LearningParams, ParamPair
from hosim.sim import Scenario

REPORT_PERIOD = 0.040


def report_with(serving_rsrp, neighbor_rsrps, t=0.0, serving_cell=0, ue=1):
    serving = MeasurementEntry(serving_cell, serving_rsrp, -11.0)
    neighbors = tuple(
        MeasurementEntry(cell, rsrp, -13.0) for cell, rsrp in neighbor_rsrps
    )
    return MeasurementReport(ue, t, serving, neighbors, -100.0)


def decide(policy, report, now):
    return policy.decide(report, policy.observe(report), now)


class TestFixedA3:
    def test_picks_strongest_neighbor(self):
        policy = FixedA3Policy(256, 3)
        decision = decide(policy, report_with(-90.0, [(1, -85.0), (2, -95.0)]), 0.0)
        assert decision.target == 1
        assert decision.pair == ParamPair(256, 3)

    def test_equal_rsrp_breaks_to_lower_id(self):
        policy = FixedA3Policy(256, 3)
        decision = decide(policy, report_with(-90.0, [(5, -85.0), (2, -85.0)]), 0.0)
        assert decision.target == 2

    # Neighbour lists of up to eight distinct cells (serving cell 0 apart)
    # whose RSRPs come from a few values, so ties are common, in any order.
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 30), st.sampled_from([-95.0, -90.0, -85.5, -85.0, -0.0, 0.0])),
                    min_size=1, max_size=8, unique_by=lambda entry: entry[0]))
    def test_target_is_the_keyed_minimum(self, neighbors):
        # A report lists its neighbours strongest first, ties to the lower
        # id, so the first is what the keyed minimum over them picks.
        report = report_with(-90.0, neighbors)
        expected = min(report.neighbors, key=lambda e: (-e.rsrp_dbm, e.cell)).cell
        assert expected == min(neighbors, key=lambda n: (-n[1], n[0]))[0]
        assert decide(FixedA3Policy(256, 3), report, 0.0).target == expected

    def test_empty_neighbors_no_decision(self):
        assert decide(FixedA3Policy(256, 3), report_with(-90.0, []), 0.0) is None

    def test_uses_raw_measured_levels(self):
        policy = FixedA3Policy(256, 3)
        report = report_with(-90.0, [(1, -84.5)])
        assert decide(policy, report, 0.0).target == 1
        assert policy.observe(report) == {0: -90.0, 1: -84.5}

    def test_picks_instantaneous_maximum_not_trend(self):
        # Cell 1 has been stronger for a while; a single noisy report
        # flips cell 2 on top and the fixed policy follows it immediately.
        policy = FixedA3Policy(256, 3)
        for _ in range(5):
            assert decide(policy, report_with(-90.0, [(1, -84.0), (2, -88.0)]), 0.0).target == 1
        flipped = decide(policy, report_with(-90.0, [(1, -87.0), (2, -83.0)]), 0.2)
        assert flipped.target == 2

    def test_decisions_deterministic(self):
        stream = [report_with(-90.0, [(1, -85.0 - i * 0.1), (2, -84.0)], t=i * 0.04) for i in range(20)]
        a = [decide(FixedA3Policy(256, 3), r, r.timestamp).target for r in stream]
        b = [decide(FixedA3Policy(256, 3), r, r.timestamp).target for r in stream]
        assert a == b


class TestGreedyRsrp:
    def test_zero_pair(self):
        assert make_policy(Scenario(policy="greedy_rsrp")).pair == ParamPair(0, 0)

    def test_same_target_as_fixed_in_stable_geometry(self):
        report = report_with(-90.0, [(1, -85.0), (2, -95.0)])
        greedy = make_policy(Scenario(policy="greedy_rsrp"))
        assert decide(greedy, report, 0.0).target == decide(FixedA3Policy(256, 3), report, 0.0).target

    def test_single_cell_never_decides(self):
        assert decide(make_policy(Scenario(policy="greedy_rsrp")), report_with(-90.0, []), 0.0) is None


def run_trace(policy, trace):
    """Drive the engine over a synthetic serving/neighbor RSRP trace,
    completing executions as their windows elapse."""
    ctx = HandoverContext(1, 0)
    outcomes = []
    decisions = 0
    for i, (rsrp_a, rsrp_b) in enumerate(trace):
        now = i * REPORT_PERIOD
        if ctx.phase == engine.EXECUTING and now >= ctx.exec_deadline - 1e-9:
            outcomes.append(complete_handover(ctx, now, target_rsrp_dbm=-80.0))
        by_cell = {0: rsrp_a, 1: rsrp_b}
        serving, other = ctx.serving, 1 - ctx.serving
        report = report_with(by_cell[serving], [(other, by_cell[other])], t=now, serving_cell=serving)
        if ctx.phase != engine.EXECUTING:
            if on_measurement_report(ctx, report, policy.observe(report), policy, now, REPORT_PERIOD):
                decisions += 1
                note_execution_sinr(ctx, 10.0)
    return decisions, outcomes


class TestOscillatingTrace:
    def make_trace(self, n=120):
        # Two equidistant cells; measured levels swing +/-3 dB in opposition
        # every four reports, crossing each other repeatedly.
        trace = []
        for i in range(n):
            swing = 3.0 if (i // 4) % 2 == 0 else -3.0
            trace.append((-90.0 + swing, -90.0 - swing))
        return trace

    def test_greedy_ping_pongs_on_oscillation(self):
        decisions, outcomes = run_trace(make_policy(Scenario(policy="greedy_rsrp")), self.make_trace())
        assert decisions >= 10
        assert any(o.ping_pong for o in outcomes)

    def test_fixed_a3_rides_out_oscillation(self):
        decisions, _ = run_trace(FixedA3Policy(256, 3), self.make_trace())
        assert decisions == 0

    def test_greedy_decides_at_least_as_often_as_fixed(self):
        trace = self.make_trace()
        greedy_decisions, _ = run_trace(make_policy(Scenario(policy="greedy_rsrp")), trace)
        fixed_decisions, _ = run_trace(FixedA3Policy(40, 0), trace)
        assert greedy_decisions >= fixed_decisions


class TestFactory:
    def test_known_names(self):
        learning = LearningParams(alpha=0.2)
        lim2 = make_policy(Scenario(policy="lim2", seed=7, learning=learning))
        assert isinstance(lim2, Lim2Policy) and lim2.seed == 7 and lim2.learning is learning
        assert make_policy(Scenario(policy="fixed_a3", fixed_ttt_ms=128, fixed_hyst_db=2)).pair == ParamPair(128, 2)
        assert make_policy(Scenario(policy="greedy_rsrp")).pair == ParamPair(0, 0)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_policy(Scenario(policy="oracle"))
