"""Deterministic cellular handover simulator.

Kalman-filtered signal prediction, SARSA target-cell ranking, and
epsilon-greedy adaptation of the time-to-trigger and hysteresis margin,
alongside fixed-policy baselines, over a seedable desk-scale radio model.
"""

__version__ = "0.1.0"
