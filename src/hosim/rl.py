"""SARSA Q-value computation, target-cell ranking, and epsilon-greedy
adaptation of the (TTT, hysteresis) pair over a per-cell Q-table.

Q-values live in [0, 1]: signal quantities are squashed through affine
sigmoids before entering the update, and the update result is clamped.
Exploration probability decays as min(1, r*N/k^2) with k the per-cell
draw count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .radio import MeasurementReport, ranged

TTT_VALUES_MS = (0, 40, 64, 80, 100, 128, 160, 256, 320, 480, 512, 640, 1024, 1280, 2560, 5120)
# Each integer is whole dB, so the grid spans 0-30 dB.  TS 38.331's
# Hysteresis IE counts the same integers 0..30 in 0.5 dB steps (0-15 dB);
# the grid keeps whole dB, as reading it in the standard's steps would
# move the corridor's golden digests.
HYST_VALUES_DB = tuple(range(31))
N_PARAM_VALUES = len(TTT_VALUES_MS) + len(HYST_VALUES_DB)
PARAM_GRID_SIZE = len(TTT_VALUES_MS) * len(HYST_VALUES_DB)

RSRQ_ANCHOR_DB = -12.0
RSRQ_SCALE_DB = 4.0


def sigmoid(a: float) -> float:
    """Logistic function 1/(1+e^-a), numerically stable for large |a|."""
    if a >= 0:
        return 1.0 / (1.0 + math.exp(-min(a, 700.0)))
    e = math.exp(max(a, -700.0))
    return e / (1.0 + e)


def clamp01(value: float) -> float:
    return min(max(value, 0.0), 1.0)


@dataclass(frozen=True, order=True, slots=True)
class ParamPair:
    """A (TTT, hysteresis) point on the standard grid, ordered TTT first."""

    ttt_ms: int
    hyst_db: int

    def __post_init__(self):
        if self.ttt_ms not in TTT_VALUES_MS:
            raise ValueError(f"ttt_ms {self.ttt_ms} not in the standard set")
        if self.hyst_db not in HYST_VALUES_DB:
            raise ValueError(f"hyst_db {self.hyst_db} not in 0..30")


# Every pair in order, TTT-major: exploration draws an index into it.
PARAM_GRID = tuple(ParamPair(ttt, hyst) for ttt in TTT_VALUES_MS for hyst in HYST_VALUES_DB)


@dataclass(frozen=True)
class LearningParams:
    """SARSA's learning rate ``alpha`` and discount ``gamma``, and the
    exploration scale ``r`` of epsilon_k = min(1, r*N/k^2).

    ``Scenario.validate`` enforces the ranges.  ``gamma`` stops one ulp
    short of 1, as a discount of 1 is no discount.  ``r`` must be positive,
    and the range [1e-6, 1e6] loses no behaviour that a run can show: at
    1e-6 even a cell's first draw explores with probability below 5e-5,
    and the expected number of exploring draws over all k, r*N*pi^2/6, is
    below 1e-4 per cell; at 1e6 epsilon_k stays 1 for a cell's first
    6,800 draws, where the 0.2 s hex50 lim2 benchmark run makes 245 draws
    over all its cells.  Beyond either end the policy only comes nearer to
    pure exploitation or pure exploration.
    """

    alpha: float = ranged(0.1, 0.0, 1.0)
    gamma: float = ranged(0.5, 0.0, math.nextafter(1.0, 0.0))
    r: float = ranged(1.0, 1e-6, 1e6)


@dataclass
class QTable:
    """One cell's learner: the learned Q-value of each (TTT, hysteresis)
    pair, the epsilon-greedy draw count, the chained Q-value the next
    SARSA update starts from (0.5 until the cell first updates), and the
    end of the cell's exploration-only window."""

    owner_cell: int
    entries: dict[ParamPair, float] = field(default_factory=dict)
    draw_count: int = 1
    q_init: float = 0.5
    t_init_s: float = 0.0


def normalize_rsrq(rsrq_db: float) -> float:
    """Map an RSRQ in dB onto (0, 1) via a sigmoid anchored at -12 dB."""
    if not math.isfinite(rsrq_db):
        raise ValueError("rsrq must be finite")
    return sigmoid((rsrq_db - RSRQ_ANCHOR_DB) / RSRQ_SCALE_DB)


def q_final(q_init: float, reward_rsrq: float, x_nbr: float, x_srv: float, params: LearningParams) -> float:
    """One SARSA update toward a candidate neighbor, clamped to [0, 1]."""
    raw = q_init + params.alpha * (reward_rsrq + params.gamma * x_nbr - x_srv)
    return clamp01(raw)


def select_target(
    report: MeasurementReport,
    x_by_cell: dict[int, float],
    q_init: float,
    params: LearningParams,
) -> tuple[int, float] | None:
    """Rank neighbors by their updated Q-value and return the best one.

    Each candidate is scored with its own normalized RSRQ as the reward.
    Ties break toward the lower cell id; an empty neighbor list yields None.
    """
    if not report.neighbors:
        return None
    if report.serving.cell not in x_by_cell:
        raise KeyError(f"missing combined-state value for serving cell {report.serving.cell}")
    x_srv = x_by_cell[report.serving.cell]
    best: tuple[float, int] | None = None
    for entry in report.neighbors:
        if entry.cell not in x_by_cell:
            raise KeyError(f"missing combined-state value for neighbor cell {entry.cell}")
        q = q_final(q_init, normalize_rsrq(entry.rsrq_db), x_by_cell[entry.cell], x_srv, params)
        if best is None or q > best[0] or (q == best[0] and entry.cell < best[1]):
            best = (q, entry.cell)
    return best[1], best[0]


def epsilon(k: int, params: LearningParams) -> float:
    """Exploration probability min(1, r*N/k^2) at draw count k >= 1."""
    if k < 1:
        raise ValueError("draw count k must be at least 1")
    return min(1.0, params.r * N_PARAM_VALUES / float(k) ** 2)


def choose_param_pair(table: QTable, params: LearningParams, sim_time: float, rng) -> tuple[ParamPair, bool]:
    """Epsilon-greedy choice of the (TTT, hysteresis) pair.

    Before the table's t_init_s only exploration runs; afterwards a
    uniform draw below epsilon_k explores a random grid point, otherwise
    the max-Q entry is exploited (ties toward smaller TTT, then smaller
    hysteresis).  An empty table degenerates to exploration.  Increments
    the draw count.
    """
    eps = epsilon(table.draw_count, params)
    table.draw_count += 1
    explore = sim_time < table.t_init_s or float(rng.random()) < eps or not table.entries
    if explore:
        return PARAM_GRID[int(rng.integers(PARAM_GRID_SIZE))], True
    best = max(table.entries.values())
    return min(pair for pair, q in table.entries.items() if q == best), False


def update_qtable(table: QTable, pair: ParamPair, q: float) -> None:
    """Store q for the pair and chain it into the table's q_init."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    table.entries[pair] = q
    table.q_init = q


def qtable_rows(tables: dict[int, QTable]) -> list[tuple[int, int, int, float]]:
    """Flatten Q-tables into (cell, ttt_ms, hyst_db, q) rows for export."""
    rows = []
    for cell in sorted(tables):
        table = tables[cell]
        for pair in sorted(table.entries):
            rows.append((cell, pair.ttt_ms, pair.hyst_db, table.entries[pair]))
    return rows
