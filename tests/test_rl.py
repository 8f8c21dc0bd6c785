"""SARSA update arithmetic, target ranking, and epsilon-greedy behavior."""

import math

import numpy as np
import pytest

from hosim.radio import MeasurementEntry, MeasurementReport
from hosim.rl import (
    HYST_VALUES_DB,
    N_PARAM_VALUES,
    PARAM_GRID,
    PARAM_GRID_SIZE,
    TTT_VALUES_MS,
    LearningParams,
    ParamPair,
    QTable,
    choose_param_pair,
    epsilon,
    normalize_rsrq,
    q_final,
    select_target,
    sigmoid,
    update_qtable,
)
from hosim.sim import ConfigError, Scenario


class TestSigmoid:
    def test_zero_is_half(self):
        assert sigmoid(0.0) == 0.5

    def test_saturates(self):
        assert sigmoid(40.0) == pytest.approx(1.0, abs=1e-12)
        assert sigmoid(-40.0) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self):
        assert sigmoid(2.0) + sigmoid(-2.0) == pytest.approx(1.0, abs=1e-15)

    def test_strictly_increasing(self):
        xs = np.linspace(-20, 20, 101)
        ys = [sigmoid(x) for x in xs]
        assert all(b > a for a, b in zip(ys, ys[1:]))

    def test_extreme_arguments_do_not_overflow(self):
        assert sigmoid(-1e6) < 1e-300
        assert sigmoid(1e6) == 1.0


class TestNormalizeRsrq:
    def test_anchor_midpoint(self):
        assert normalize_rsrq(-12.0) == 0.5

    def test_ordering(self):
        assert normalize_rsrq(-3.0) > normalize_rsrq(-19.0)

    def test_value_at_minus_eight(self):
        assert normalize_rsrq(-8.0) == pytest.approx(sigmoid(1.0))
        assert normalize_rsrq(-8.0) == pytest.approx(0.7310585786, abs=1e-9)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            normalize_rsrq(float("nan"))


class TestQFinal:
    def test_zero_learning_rate_keeps_q_init(self):
        params = LearningParams(alpha=0.0)
        assert q_final(0.37, 0.9, 0.9, 0.1, params) == 0.37

    def test_hand_arithmetic(self):
        params = LearningParams(alpha=0.1, gamma=0.5)
        assert q_final(0.5, 0.6, 0.7, 0.4, params) == pytest.approx(0.555, abs=1e-12)

    def test_clamp_upper(self):
        params = LearningParams(alpha=0.1, gamma=0.5)
        assert q_final(1.0, 1.0, 1.0, 0.0, params) == 1.0

    def test_clamp_lower(self):
        params = LearningParams(alpha=1.0, gamma=0.0)
        assert q_final(0.0, 0.0, 0.0, 1.0, params) == 0.0

    def test_monotone_in_reward(self):
        params = LearningParams()
        rng = np.random.default_rng(1)
        for _ in range(200):
            q0, x_n, x_s = rng.uniform(0, 1, size=3)
            r_lo, r_hi = sorted(rng.uniform(0, 1, size=2))
            assert q_final(q0, r_hi, x_n, x_s, params) >= q_final(q0, r_lo, x_n, x_s, params)


def make_report(neighbors, serving_cell=0, ue=1):
    serving = MeasurementEntry(serving_cell, -80.0, -11.0)
    return MeasurementReport(ue, 0.0, serving, tuple(neighbors), -100.0)


class TestSelectTarget:
    def test_single_neighbor(self):
        report = make_report([MeasurementEntry(3, -85.0, -12.0)])
        x = {0: 0.5, 3: 0.6}
        target, q = select_target(report, x, 0.5, LearningParams())
        assert target == 3
        assert 0.0 <= q <= 1.0

    def test_tie_breaks_to_lower_cell_id(self):
        report = make_report([MeasurementEntry(7, -85.0, -12.0), MeasurementEntry(2, -85.0, -12.0)])
        x = {0: 0.5, 2: 0.6, 7: 0.6}
        target, _ = select_target(report, x, 0.5, LearningParams())
        assert target == 2

    def test_empty_neighbors_returns_none(self):
        assert select_target(make_report([]), {0: 0.5}, 0.5, LearningParams()) is None

    def test_missing_x_entry_raises(self):
        report = make_report([MeasurementEntry(3, -85.0, -12.0)])
        with pytest.raises(KeyError):
            select_target(report, {0: 0.5}, 0.5, LearningParams())

    def test_matches_exhaustive_argmax(self):
        rng = np.random.default_rng(99)
        params = LearningParams()
        for _ in range(1000):
            cells = rng.choice(np.arange(1, 40), size=8, replace=False)
            neighbors = [MeasurementEntry(int(c), float(rng.uniform(-110, -70)), float(rng.uniform(-19, -4))) for c in cells]
            report = make_report(neighbors)
            x = {0: float(rng.uniform(0, 1))}
            x.update({int(c): float(rng.uniform(0, 1)) for c in cells})
            q_init = float(rng.uniform(0, 1))
            target, q = select_target(report, x, q_init, params)
            scored = [
                (q_final(q_init, normalize_rsrq(n.rsrq_db), x[n.cell], x[0], params), n.cell)
                for n in neighbors
            ]
            best_q = max(s[0] for s in scored)
            best_cell = min(c for s, c in scored if s == best_q)
            assert target == best_cell
            assert q == best_q

    def test_shared_q_init_shift_does_not_change_choice(self):
        rng = np.random.default_rng(5)
        params = LearningParams()
        for _ in range(100):
            cells = rng.choice(np.arange(1, 30), size=5, replace=False)
            neighbors = [MeasurementEntry(int(c), float(rng.uniform(-100, -75)), float(rng.uniform(-16, -8))) for c in cells]
            report = make_report(neighbors)
            x = {0: 0.5}
            x.update({int(c): float(rng.uniform(0.2, 0.8)) for c in cells})
            # Away from the clamp, a q_init shift moves every candidate equally.
            a, _ = select_target(report, x, 0.4, params)
            b, _ = select_target(report, x, 0.5, params)
            assert a == b


class TestEpsilon:
    def test_table_values(self):
        params = LearningParams(r=1.0)
        assert epsilon(1, params) == 1.0
        assert epsilon(7, params) == pytest.approx(47 / 49)
        assert epsilon(100, params) == pytest.approx(0.0047)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            epsilon(0, LearningParams())

    def test_non_increasing_and_small_by_69(self):
        params = LearningParams()
        values = [epsilon(k, params) for k in range(1, 200)]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert epsilon(69, params) < 0.01
        assert epsilon(68, params) > 0.01


class TestChooseParamPair:
    def test_always_explores_before_t_init(self):
        params = LearningParams()
        table = QTable(0, entries={ParamPair(256, 3): 0.9}, draw_count=10**6, t_init_s=10.0)
        rng = np.random.default_rng(0)
        for now in (0.0, 5.0, 9.99):
            _, explored = choose_param_pair(table, params, now, rng)
            assert explored

    def test_exploits_single_entry_when_epsilon_negligible(self):
        params = LearningParams()
        table = QTable(0, entries={ParamPair(256, 3): 0.9}, draw_count=10**6)
        pair, explored = choose_param_pair(table, params, 100.0, np.random.default_rng(0))
        assert pair == ParamPair(256, 3)
        assert not explored

    def test_empty_table_degenerates_to_explore(self):
        table = QTable(0, draw_count=10**6)
        pair, explored = choose_param_pair(table, LearningParams(), 100.0, np.random.default_rng(1))
        assert explored
        assert pair.ttt_ms in TTT_VALUES_MS

    def test_explore_fraction_tracks_epsilon(self):
        params = LearningParams()
        rng = np.random.default_rng(77)
        for k in (1, 7, 100):
            table = QTable(0, entries={ParamPair(256, 3): 0.9})
            hits = 0
            for _ in range(10_000):
                table.draw_count = k
                _, explored = choose_param_pair(table, params, 100.0, rng)
                hits += explored
            assert abs(hits / 10_000 - epsilon(k, params)) < 0.02

    def test_exploit_matches_scan_oracle(self):
        rng = np.random.default_rng(13)
        params = LearningParams()
        for _ in range(200):
            table = QTable(0, draw_count=10**6)
            n = int(rng.integers(1, 40))
            for _ in range(n):
                pair = ParamPair(
                    TTT_VALUES_MS[int(rng.integers(len(TTT_VALUES_MS)))],
                    HYST_VALUES_DB[int(rng.integers(len(HYST_VALUES_DB)))],
                )
                table.entries[pair] = float(rng.integers(0, 5)) / 4.0
            pair, explored = choose_param_pair(table, params, 100.0, rng)
            assert not explored
            best_q = max(table.entries.values())
            assert table.entries[pair] == best_q
            ties = [p for p, q in table.entries.items() if q == best_q]
            assert pair == min(ties, key=lambda p: (p.ttt_ms, p.hyst_db))

    def test_draw_count_increments(self):
        table = QTable(0)
        choose_param_pair(table, LearningParams(), 0.0, np.random.default_rng(0))
        assert table.draw_count == 2


class TestQTableUpdates:
    def test_insert_and_overwrite(self):
        table = QTable(0)
        update_qtable(table, ParamPair(256, 3), 0.7)
        assert len(table.entries) == 1
        update_qtable(table, ParamPair(256, 3), 0.4)
        assert len(table.entries) == 1
        assert table.entries[ParamPair(256, 3)] == 0.4
        assert table.q_init == 0.4

    def test_grid_bound_under_random_updates(self):
        rng = np.random.default_rng(21)
        table = QTable(0)
        for _ in range(100_000):
            pair = ParamPair(
                TTT_VALUES_MS[int(rng.integers(len(TTT_VALUES_MS)))],
                HYST_VALUES_DB[int(rng.integers(len(HYST_VALUES_DB)))],
            )
            update_qtable(table, pair, float(rng.uniform(0, 1)))
        assert len(table.entries) <= PARAM_GRID_SIZE
        assert all(0.0 <= q <= 1.0 for q in table.entries.values())

    def test_rejects_out_of_range_q(self):
        with pytest.raises(ValueError):
            update_qtable(QTable(0), ParamPair(0, 0), 1.2)


class TestParamSets:
    def test_cardinalities(self):
        assert len(TTT_VALUES_MS) == 16
        assert len(HYST_VALUES_DB) == 31
        assert N_PARAM_VALUES == 47
        assert PARAM_GRID_SIZE == 496
        # Every pair once, TTT-major, which is also ParamPair's own order.
        ttt_major = sorted({ParamPair(t, h) for t in TTT_VALUES_MS for h in HYST_VALUES_DB},
                           key=lambda p: (p.ttt_ms, p.hyst_db))
        assert list(PARAM_GRID) == ttt_major == sorted(PARAM_GRID)

    def test_pair_membership_enforced(self):
        with pytest.raises(ValueError):
            ParamPair(100, 31)
        with pytest.raises(ValueError):
            ParamPair(99, 3)

    def test_learning_param_validation(self):
        # Scenario.validate is the one gate; each failure names its key.
        for key, value in (("alpha", 1.5), ("gamma", 1.0), ("r", 0.0)):
            with pytest.raises(ConfigError) as err:
                Scenario(learning=LearningParams(**{key: value})).validate()
            assert err.value.field_name == f"learning.{key}"
        Scenario(learning=LearningParams(alpha=1.0, gamma=math.nextafter(1.0, 0.0), r=1e-6)).validate()
