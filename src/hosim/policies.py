"""Handover policies behind the engine's policy interface.

lim2: filters every reported cell through a per-(UE, cell) Kalman
stream, ranks neighbors by the SARSA Q-update with the neighbor's
normalized RSRQ as reward, and picks the (TTT, hysteresis) pair by
epsilon-greedy over the serving cell's Q-table.  Its A3 levels are the
posterior RSRP estimates.

fixed_a3: static (TTT, hysteresis), target = strongest measured
neighbor (a report's first), raw measured levels.

greedy_rsrp: fixed_a3 with a zero pair -- maximally reactive and
ping-pong-prone by construction.

A policy's ``observe`` returns each reported cell's A3 level and its
``decide`` only proposes a target and a pair; the engine judges the A3
condition on those levels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kalman
from .engine import Policy, PolicyDecision
from .radio import MeasurementReport
from .rl import LearningParams, ParamPair, QTable, choose_param_pair, select_target, update_qtable

T_INIT_RANGE_S = (5.0, 15.0)
# Sub-stream tag so per-cell agent RNGs never collide with channel RNGs.
_AGENT_STREAM_TAG = 2


class FixedA3Policy(Policy):
    """Static A3 policy: strongest measured neighbor, configured pair."""

    def __init__(self, ttt_ms: int, hyst_db: int):
        self.pair = ParamPair(ttt_ms, hyst_db)

    def observe(self, report: MeasurementReport) -> dict[int, float]:
        levels = {report.serving.cell: report.serving.rsrp_dbm}
        for cell, rsrp_dbm, _ in report.neighbors:
            levels[cell] = rsrp_dbm
        return levels

    def decide(self, report: MeasurementReport, levels: dict[int, float], now: float) -> PolicyDecision | None:
        # A report lists its neighbors strongest first, ties to the lower id.
        if not report.neighbors:
            return None
        return PolicyDecision(report.neighbors[0].cell, self.pair)


@dataclass
class _CellAgent:
    """Per-cell learner: its Q-table and its private RNG."""

    table: QTable
    rng: np.random.Generator


class Lim2Policy(Policy):
    """Learning policy: Kalman prediction + SARSA ranking + epsilon-greedy pair."""

    def __init__(self, learning: LearningParams, seed: int):
        self.learning = learning
        self.seed = seed
        self.streams = kalman.KalmanStreams(kalman.KalmanParams())
        # Agents are created lazily per serving cell, each with an RNG
        # derived only from (seed, cell) so cells stay independent.
        self._agents: dict[int, _CellAgent] = {}

    def _agent(self, cell: int) -> _CellAgent:
        agent = self._agents.get(cell)
        if agent is None:
            rng = np.random.default_rng([self.seed, _AGENT_STREAM_TAG, cell])
            agent = _CellAgent(QTable(owner_cell=cell, t_init_s=float(rng.uniform(*T_INIT_RANGE_S))), rng)
            self._agents[cell] = agent
        return agent

    def observe(self, report: MeasurementReport) -> dict[int, float]:
        ue, noise, now = report.ue, report.env_noise_dbm, report.timestamp
        levels = {}
        for cell, rsrp_dbm, _ in (report.serving, *report.neighbors):
            levels[cell] = self.streams.observe((ue, cell), (rsrp_dbm, noise), now)[0]
        return levels

    def _combined_states(self, report: MeasurementReport) -> dict[int, float]:
        return {
            entry.cell: kalman.combine_state(self.streams.get((report.ue, entry.cell)))
            for entry in (report.serving, *report.neighbors)
        }

    def decide(self, report: MeasurementReport, levels: dict[int, float], now: float) -> PolicyDecision | None:
        """Rank the neighbors, then draw a pair only if the target leads.

        No hysteresis can satisfy a strict A3 check while the target
        estimate trails the serving one, so the pair selection (and its
        Q-table write) only runs when a handover is actually in prospect.
        When no reported neighbor leads (or none is reported) that gate
        rejects any target, so decide abstains before ranking; ranking
        has no side effects and each agent's RNG depends only on (seed,
        cell), so skipping it changes no decision, table or draw.
        """
        serving = levels[report.serving.cell]
        for entry in report.neighbors:
            if levels[entry.cell] > serving:
                break
        else:
            return None
        agent = self._agent(report.serving.cell)
        target, q_value = select_target(report, self._combined_states(report), agent.table.q_init, self.learning)
        # The ranked target may still trail while another neighbor leads.
        if levels[target] <= serving:
            return None
        pair, _ = choose_param_pair(agent.table, self.learning, now, agent.rng)
        update_qtable(agent.table, pair, q_value)
        return PolicyDecision(target, pair)

    def qtables(self) -> dict[int, QTable]:
        return {cell: agent.table for cell, agent in self._agents.items()}


def make_policy(scenario) -> Policy:
    """The policy a ``Scenario`` names in ``policy``, built from its fields."""
    if scenario.policy == "lim2":
        return Lim2Policy(scenario.learning, scenario.seed)
    if scenario.policy == "fixed_a3":
        return FixedA3Policy(scenario.fixed_ttt_ms, scenario.fixed_hyst_db)
    if scenario.policy == "greedy_rsrp":
        return FixedA3Policy(0, 0)
    raise ValueError(f"unknown policy {scenario.policy!r}")
