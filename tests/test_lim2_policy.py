"""Learning-policy pipeline: filter streams, agent isolation, pair choice."""

import numpy as np
import pytest

from hosim import policies
from hosim.engine import PolicyDecision
from hosim.policies import Lim2Policy
from hosim.radio import MeasurementEntry, MeasurementReport
from hosim.rl import LearningParams, choose_param_pair, select_target, update_qtable


def report(serving_rsrp, neighbor_rsrp, t, serving_cell=0, neighbor_cell=1, ue=1):
    return MeasurementReport(
        ue,
        t,
        MeasurementEntry(serving_cell, serving_rsrp, -11.0),
        (MeasurementEntry(neighbor_cell, neighbor_rsrp, -12.0),),
        -100.0,
    )


def feed(policy, serving_rsrp, neighbor_rsrp, t, **kw):
    """Observe one report; return it with the levels observe returned."""
    r = report(serving_rsrp, neighbor_rsrp, t, **kw)
    return r, policy.observe(r)


@pytest.fixture
def explored(monkeypatch):
    """The explored flag of every pair draw a policy makes, in order."""
    flags = []

    def recording(*args):
        pair, flag = choose_param_pair(*args)
        flags.append(flag)
        return pair, flag

    monkeypatch.setattr(policies, "choose_param_pair", recording)
    return flags


class TestObserveAndLevels:
    def test_levels_come_from_filter_streams(self):
        policy = Lim2Policy(LearningParams(), seed=0)
        _, levels = feed(policy, -90.0, -85.0, 0.0)
        # First observation seeds the stream with the measurement itself.
        assert levels[0] == pytest.approx(-90.0)
        assert levels[1] == pytest.approx(-85.0)
        for cell, level in levels.items():
            assert level == float(policy.streams.get((1, cell))[0])

    def test_levels_smooth_measurement_noise(self):
        rng = np.random.default_rng(3)
        policy = Lim2Policy(LearningParams(), seed=0)
        levels = None
        for i in range(100):
            _, levels = feed(policy, -90.0 + rng.normal(0, 2), -85.0 + rng.normal(0, 2), i * 0.04)
        assert abs(levels[0] + 90.0) < 1.5
        assert abs(levels[1] + 85.0) < 1.5
        for cell, level in levels.items():
            assert level == float(policy.streams.get((1, cell))[0])

    def test_level_none_for_unreported_cell(self):
        policy = Lim2Policy(LearningParams(), seed=0)
        _, levels = feed(policy, -90.0, -85.0, 0.0)
        assert levels.get(7) is None


class TestDecide:
    def test_no_decision_while_neighbor_estimate_trails(self):
        policy = Lim2Policy(LearningParams(), seed=0)
        r, levels = feed(policy, -85.0, -95.0, 0.0)
        assert policy.decide(r, levels, 0.0) is None
        # The guard also means no epsilon-greedy draw was consumed.
        assert policy.qtables() == {} or all(t.draw_count == 1 for t in policy.qtables().values())

    def test_decision_when_neighbor_leads(self, explored):
        policy = Lim2Policy(LearningParams(), seed=0)
        r, levels = feed(policy, -95.0, -85.0, 0.0)
        d = policy.decide(r, levels, 0.0)
        assert d is not None
        assert d.target == 1
        assert levels[d.target] > levels[0]
        assert explored == [True]  # t_init window forces exploration

    def test_decision_updates_serving_cell_table(self):
        policy = Lim2Policy(LearningParams(), seed=0)
        r, levels = feed(policy, -95.0, -85.0, 0.0)
        policy.decide(r, levels, 0.0)
        tables = policy.qtables()
        assert 0 in tables
        assert len(tables[0].entries) == 1
        assert tables[0].draw_count == 2

    def test_empty_neighbor_list_abstains(self):
        policy = Lim2Policy(LearningParams(), seed=0)
        r = MeasurementReport(1, 0.0, MeasurementEntry(0, -90.0, -11.0), (), -100.0)
        assert policy.decide(r, policy.observe(r), 0.0) is None

    def test_exploits_after_t_init(self, explored):
        policy = Lim2Policy(LearningParams(), seed=0)
        agent = policy._agent(0)
        agent.table.draw_count = 10**6  # epsilon ~ 0
        t_late = agent.table.t_init_s + 1.0
        r, levels = feed(policy, -95.0, -85.0, t_late)
        policy.decide(r, levels, t_late)
        assert explored == [True]  # table still empty, degenerates to explore
        r2, levels2 = feed(policy, -95.0, -85.0, t_late + 0.04)
        agent.table.draw_count = 10**6
        second = policy.decide(r2, levels2, t_late + 0.04)
        assert explored == [True, False]
        assert second.pair in agent.table.entries


def rank_then_gate(policy, r, levels, now):
    """decide as it was before its early abstain: rank every neighbor,
    then reject a target that does not lead the serving cell."""
    if not r.neighbors:
        return None
    agent = policy._agent(r.serving.cell)
    target, q_value = select_target(r, policy._combined_states(r), agent.table.q_init, policy.learning)
    if levels[target] <= levels[r.serving.cell]:
        return None
    pair, _ = choose_param_pair(agent.table, policy.learning, now, agent.rng)
    update_qtable(agent.table, pair, q_value)
    return PolicyDecision(target, pair)


class TestEarlyAbstain:
    def test_no_ranking_while_no_neighbor_leads(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("select_target called")

        monkeypatch.setattr(policies, "select_target", unreachable)
        policy = Lim2Policy(LearningParams(), seed=0)
        serving = MeasurementEntry(0, -85.0, -11.0)
        # One UE per report, so each level is its first measurement and ties are exact.
        for ue, rsrps in enumerate(([], [-95.0], [-85.0], [-85.0, -90.0, -120.0])):
            neighbors = tuple(MeasurementEntry(c, v, -12.0) for c, v in enumerate(rsrps, start=1))
            r = MeasurementReport(ue, 0.0, serving, neighbors, -100.0)
            levels = policy.observe(r)
            assert [levels[e.cell] for e in neighbors] == rsrps and levels[0] == -85.0
            assert policy.decide(r, levels, 0.0) is None

    def test_equals_rank_then_gate(self):
        """Random reports and levels (ties included) give the same decisions,
        Q-tables and agent RNG states as ranking before the gate."""
        rng = np.random.default_rng(21)
        policy, oracle = Lim2Policy(LearningParams(), seed=4), Lim2Policy(LearningParams(), seed=4)
        outcomes = {"abstain": 0, "trailing target": 0, "decision": 0}
        for i in range(3000):
            now = i * 0.01
            cells = rng.permutation(6)[: 1 + rng.integers(4)].tolist()
            entries = [MeasurementEntry(c, float(rng.normal(-90.0, 6.0)), float(rng.normal(-12.0, 3.0)))
                       for c in cells]
            r = MeasurementReport(int(rng.integers(3)), now, entries[0], tuple(entries[1:]),
                                  float(rng.normal(-100.0, 2.0)))
            assert policy.observe(r) == oracle.observe(r)
            levels = {c: float(rng.integers(-3, 3)) for c in cells}
            got = policy.decide(r, levels, now)
            assert got == rank_then_gate(oracle, r, levels, now)
            if not any(levels[e.cell] > levels[r.serving.cell] for e in r.neighbors):
                outcomes["abstain"] += 1
            else:
                outcomes["trailing target" if got is None else "decision"] += 1
        assert min(outcomes.values()) > 100
        # The oracle also creates agents that never draw; those stay untouched.
        tables = policy.qtables()
        for cell, agent in oracle._agents.items():
            if cell in policy._agents:
                assert agent.table == tables[cell]
                assert agent.rng.bit_generator.state == policy._agents[cell].rng.bit_generator.state
            else:
                assert agent.table.entries == {} and agent.table.draw_count == 1


class TestAgentIndependence:
    def test_t_init_fixed_by_seed_and_cell(self):
        a = Lim2Policy(LearningParams(), seed=5)._agent(3).table.t_init_s
        b = Lim2Policy(LearningParams(), seed=5)._agent(3).table.t_init_s
        c = Lim2Policy(LearningParams(), seed=6)._agent(3).table.t_init_s
        assert a == b
        assert a != c
        assert 5.0 <= a <= 15.0

    def test_untouched_agents_do_not_shift_decisions(self, explored):
        def run(touch_extra_cell):
            explored.clear()
            policy = Lim2Policy(LearningParams(), seed=9)
            if touch_extra_cell:
                policy._agent(42)  # would disturb a shared RNG stream
            picks = []
            for i in range(60):
                t = i * 0.04
                r, levels = feed(policy, -95.0 + 0.05 * i, -85.0, t)
                d = policy.decide(r, levels, t)
                picks.append(None if d is None else (d.pair.ttt_ms, d.pair.hyst_db))
            return picks, list(explored)

        assert run(False) == run(True)

    def test_per_cell_draw_sequences_differ(self):
        policy = Lim2Policy(LearningParams(), seed=1)
        draws_a = [policy._agent(0).rng.random() for _ in range(5)]
        draws_b = [policy._agent(1).rng.random() for _ in range(5)]
        assert draws_a != draws_b


class TestLearningParams:
    def test_custom_learning_params_propagate(self):
        policy = Lim2Policy(learning=LearningParams(alpha=0.2, gamma=0.3), seed=0)
        assert policy.learning.alpha == 0.2
        assert policy.learning.gamma == 0.3
        assert 5.0 <= policy._agent(0).table.t_init_s <= 15.0
