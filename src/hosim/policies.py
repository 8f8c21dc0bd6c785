"""Handover policies behind the engine's policy interface.

lim2: filters every reported cell through a per-(UE, cell) Kalman
stream, ranks neighbors by the SARSA Q-update with the neighbor's
normalized RSRQ as reward, and picks the (TTT, hysteresis) pair by
epsilon-greedy over the serving cell's Q-table.  Its A3 levels are the
posterior RSRP estimates.

fixed_a3: static (TTT, hysteresis), target = strongest measured
neighbor, raw measured levels.

greedy_rsrp: fixed_a3 with a zero pair -- maximally reactive and
ping-pong-prone by construction.

A policy only proposes a target and a pair; the engine judges the A3
condition on the policy's levels.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import kalman
from .engine import Policy, PolicyDecision
from .radio import MeasurementReport
from .rl import (
    CellQState,
    LearningParams,
    ParamPair,
    QTable,
    choose_param_pair,
    select_target,
    update_qtable,
)

T_INIT_RANGE_S = (5.0, 15.0)
# Sub-stream tag so per-cell agent RNGs never collide with channel RNGs.
_AGENT_STREAM_TAG = 2


class FixedA3Policy(Policy):
    """Static A3 policy: strongest measured neighbor, configured pair."""

    def __init__(self, ttt_ms: int = 256, hyst_db: int = 3):
        self.pair = ParamPair(ttt_ms, hyst_db)

    def level(self, report: MeasurementReport, cell: int) -> float | None:
        entry = report.entry(cell)
        return None if entry is None else entry.rsrp_dbm

    def decide(self, report: MeasurementReport, now: float) -> PolicyDecision | None:
        if not report.neighbors:
            return None
        best = min(report.neighbors, key=lambda e: (-e.rsrp_dbm, e.cell))
        return PolicyDecision(best.cell, self.pair)


@dataclass
class _CellAgent:
    """Per-cell learner: Q-table, chained q_init, schedule, private RNG."""

    table: QTable
    q_state: CellQState
    params: LearningParams
    rng: np.random.Generator


class Lim2Policy(Policy):
    """Learning policy: Kalman prediction + SARSA ranking + epsilon-greedy pair."""

    def __init__(self, learning: LearningParams | None = None, seed: int = 0):
        self.learning = learning or LearningParams()
        self.seed = seed
        self.streams = kalman.KalmanStreams(kalman.KalmanParams())
        # Agents are created lazily per serving cell, each with an RNG
        # derived only from (seed, cell) so cells stay independent.
        self._agents: dict[int, _CellAgent] = {}

    def _agent(self, cell: int) -> _CellAgent:
        agent = self._agents.get(cell)
        if agent is None:
            rng = np.random.default_rng([self.seed, _AGENT_STREAM_TAG, cell])
            params = dataclasses.replace(self.learning, t_init_s=float(rng.uniform(*T_INIT_RANGE_S)))
            agent = _CellAgent(QTable(owner_cell=cell), CellQState(cell), params, rng)
            self._agents[cell] = agent
        return agent

    def observe(self, report: MeasurementReport) -> None:
        for entry in (report.serving, *report.neighbors):
            self.streams.observe((report.ue, entry.cell), (entry.rsrp_dbm, report.env_noise_dbm), report.timestamp)

    def level(self, report: MeasurementReport, cell: int) -> float | None:
        if report.entry(cell) is None:
            return None
        x = self.streams.get((report.ue, cell))
        return None if x is None else float(x[0])

    def _combined_states(self, report: MeasurementReport) -> dict[int, float]:
        x_by_cell = {}
        for entry in (report.serving, *report.neighbors):
            x = self.streams.get((report.ue, entry.cell))
            if x is None:
                raise KeyError(f"no filter stream for (ue={report.ue}, cell={entry.cell}); observe() first")
            x_by_cell[entry.cell] = kalman.combine_state(x)
        return x_by_cell

    def decide(self, report: MeasurementReport, now: float) -> PolicyDecision | None:
        if not report.neighbors:
            return None
        agent = self._agent(report.serving.cell)
        x_by_cell = self._combined_states(report)
        selected = select_target(report, x_by_cell, agent.q_state.q_init, agent.params)
        if selected is None:
            return None
        target, q_value = selected
        # No hysteresis can satisfy a strict A3 check while the target
        # estimate trails the serving one, so the pair selection (and its
        # Q-table write) only runs when a handover is actually in prospect.
        if self.level(report, target) <= self.level(report, report.serving.cell):
            return None
        pair, _ = choose_param_pair(agent.table, agent.params, now, agent.rng)
        update_qtable(agent.table, pair, q_value, agent.q_state)
        return PolicyDecision(target, pair)

    def qtables(self) -> dict[int, QTable]:
        return {cell: agent.table for cell, agent in self._agents.items()}


def make_policy(name: str, seed: int = 0, learning: LearningParams | None = None,
                fixed_ttt_ms: int = 256, fixed_hyst_db: int = 3) -> Policy:
    """Instantiate a policy by its CLI name."""
    if name == "lim2":
        return Lim2Policy(learning=learning, seed=seed)
    if name == "fixed_a3":
        return FixedA3Policy(ttt_ms=fixed_ttt_ms, hyst_db=fixed_hyst_db)
    if name == "greedy_rsrp":
        return FixedA3Policy(ttt_ms=0, hyst_db=0)
    raise ValueError(f"unknown policy {name!r}")
