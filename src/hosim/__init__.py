"""Deterministic cellular handover simulator.

Kalman-filtered signal prediction, SARSA target-cell ranking, and
epsilon-greedy adaptation of the time-to-trigger and hysteresis margin,
alongside fixed-policy baselines, over a seedable desk-scale radio model.
"""

from .engine import HandoverContext, HandoverOutcome
from .kalman import KalmanParams, KalmanState, combine_state
from .metrics import CdfSeries, KpiRecord, cdf
from .policies import FixedA3Policy, Lim2Policy, make_policy
from .radio import ChannelParams, MeasurementEntry, MeasurementReport, RadioEnvironment, RadioParams
from .rl import LearningParams, ParamPair, QTable, epsilon, q_final, sigmoid
from .sim import RunResult, Scenario, Simulation, run

__version__ = "0.1.0"

__all__ = [
    "CdfSeries",
    "ChannelParams",
    "FixedA3Policy",
    "HandoverContext",
    "HandoverOutcome",
    "KalmanParams",
    "KalmanState",
    "KpiRecord",
    "LearningParams",
    "Lim2Policy",
    "MeasurementEntry",
    "MeasurementReport",
    "ParamPair",
    "QTable",
    "RadioEnvironment",
    "RadioParams",
    "RunResult",
    "Scenario",
    "Simulation",
    "cdf",
    "combine_state",
    "epsilon",
    "make_policy",
    "q_final",
    "run",
    "sigmoid",
]
