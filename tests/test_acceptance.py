"""Acceptance suite.

Each test exercises one release criterion at its stated tolerance and
prints a single PASS/FAIL line (visible with `pytest -s` or on failure).
Criteria 9 and 10 are directional end-to-end checks on the two-cell
crossing corridor; the rest are oracle and property checks.
"""

import math
import time

import numpy as np

from hosim import cli
from hosim.config import dump_scenario
from hosim.kalman import KalmanParams, KalmanState, gain, initial_state, predict, step
from hosim.radio import MeasurementEntry, MeasurementReport
from hosim.rl import (
    HYST_VALUES_DB,
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
    update_qtable,
)
from hosim import engine as eng
from hosim.sim import run
from corridor import corridor_scenario


def report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {description} {detail}".rstrip())
    assert ok, f"criterion {number} failed: {description} {detail}"


def textbook_filter(x0, P0, Q, R, measurements):
    """Independent reference filter (identity dynamics, explicit inverse)."""
    x = np.array(x0, dtype=float)
    P = np.array(P0, dtype=float)
    out = []
    for z in measurements:
        P = P + Q
        K = P @ np.linalg.inv(P + R)
        x = x + K @ (np.asarray(z, dtype=float) - x)
        P = (np.eye(2) - K) @ P
        out.append((x.copy(), P.copy()))
    return out


def random_psd(rng, scale):
    A = rng.normal(size=(2, 2))
    return A @ A.T * scale + np.eye(2) * 1e-3


def test_criterion_1_kalman_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        Q = random_psd(rng, 0.05)
        R = random_psd(rng, 2.0)
        P0 = random_psd(rng, 1.0)
        params = KalmanParams(Q=Q, R=R, P0=P0)
        x0 = rng.normal(-85.0, 8.0, size=2)
        measurements = rng.normal(-85.0, 4.0, size=(12, 2))
        state = KalmanState(x0.copy(), P0.copy())
        for z, (ex, eP) in zip(measurements, textbook_filter(x0, P0, Q, R, measurements)):
            state = step(state, z, params)
            worst = max(worst, float(np.max(np.abs(state.x - ex))), float(np.max(np.abs(state.P - eP))))
    elapsed = time.time() - start
    report(1, "Kalman oracle equivalence over 1000 random traces",
           worst < 1e-9 and elapsed < 5.0, f"(max deviation {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_2_gain_convergence():
    start = time.time()
    rng = np.random.default_rng(7)
    params_a = KalmanParams(P0=np.eye(2))
    params_b = KalmanParams(P0=np.eye(2) * 100.0)
    a = initial_state([-80.0, -100.0], params_a)
    b = initial_state([-80.0, -100.0], params_b)
    for _ in range(100):
        z = [-80.0 + rng.normal(0, 2), -100.0 + rng.normal(0, 2)]
        a = step(a, z, params_a)
        b = step(b, z, params_b)
    deviation = float(np.max(np.abs(gain(predict(a, params_a).P, params_a)
                                    - gain(predict(b, params_b).P, params_b))))
    elapsed = time.time() - start
    report(2, "Kalman gain independent of initial covariance",
           deviation < 1e-6 and elapsed < 1.0, f"(gain deviation {deviation:.2e}, {elapsed:.2f}s)")


def test_criterion_3_constant_signal_tracking():
    # Constant truth, so the filter is configured with zero process noise;
    # measurement noise is 2 dB on both components.
    params = KalmanParams(Q=np.zeros((2, 2)), R=np.diag([4.0, 4.0]))
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        state = initial_state([-80.0 + rng.normal(0, 2.0), -100.0 + rng.normal(0, 2.0)], params)
        for _ in range(200):
            z = [-80.0 + rng.normal(0, 2.0), -100.0 + rng.normal(0, 2.0)]
            state = step(state, z, params)
        hits += abs(state.x[0] + 80.0) <= 0.5
    report(3, "constant -80 dBm tracked within 0.5 dB in >=95/100 runs",
           hits >= 95, f"({hits}/100 within band)")


def test_criterion_4_epsilon_greedy_statistics():
    start = time.time()
    params = LearningParams(r=1.0)
    expected = {1: 1.0, 7: 47 / 49, 100: 0.0047}
    ok = True
    detail = []
    for k, eps in expected.items():
        ok &= abs(epsilon(k, params) - eps) < 1e-12
        table = QTable(0, entries={ParamPair(256, 3): 0.9})
        rng = np.random.default_rng(k)
        explored = 0
        for _ in range(10_000):
            table.draw_count = k
            _, flag = choose_param_pair(table, params, 100.0, rng)
            explored += flag
        fraction = explored / 10_000
        ok &= abs(fraction - eps) < 0.02
        detail.append(f"k={k}: {fraction:.4f} vs {eps:.4f}")
    elapsed = time.time() - start
    report(4, "epsilon values and empirical explore fractions",
           ok and elapsed < 5.0, f"({'; '.join(detail)}, {elapsed:.2f}s)")


def test_criterion_5_sarsa_arithmetic():
    params = LearningParams(alpha=0.1, gamma=0.5)
    value = q_final(0.5, 0.6, 0.7, 0.4, params)
    upper = q_final(1.0, 1.0, 1.0, 0.0, params)
    lower = q_final(0.0, 0.0, 0.0, 1.0, LearningParams(alpha=1.0, gamma=0.0))
    ok = abs(value - 0.555) < 1e-12 and upper == 1.0 and lower == 0.0
    report(5, "SARSA hand-arithmetic and clamp bounds", ok,
           f"(q={value!r}, clamps {lower}/{upper})")


def test_criterion_6_target_selection_brute_force():
    rng = np.random.default_rng(606)
    params = LearningParams()
    matches = 0
    for _ in range(1000):
        cells = rng.choice(np.arange(1, 60), size=8, replace=False)
        neighbors = [
            MeasurementEntry(int(c), float(rng.uniform(-115, -65)), float(rng.uniform(-20, -3)))
            for c in cells
        ]
        serving = MeasurementEntry(0, -85.0, -11.0)
        rep = MeasurementReport(1, 0.0, serving, tuple(neighbors), -100.0)
        x = {0: float(rng.uniform(0, 1))}
        x.update({int(c): float(rng.uniform(0, 1)) for c in cells})
        q0 = float(rng.uniform(0, 1))
        target, _ = select_target(rep, x, q0, params)
        scored = [(q_final(q0, normalize_rsrq(n.rsrq_db), x[n.cell], x[0], params), n.cell) for n in neighbors]
        best = max(s for s, _ in scored)
        matches += target == min(c for s, c in scored if s == best)
    report(6, "target selection equals exhaustive argmax", matches == 1000, f"({matches}/1000)")


def test_criterion_7_ttt_timer_semantics():
    period = 0.040

    class Scripted(eng.Policy):
        def __init__(self, pair):
            self.pair = pair
            self.levels = {0: -90.0, 1: -85.0}

        def observe(self, rep):
            return self.levels  # make_report always carries cells 0 and 1

        def decide(self, rep, levels, now):
            return eng.PolicyDecision(1, self.pair)

    def on_report(ctx, rep, policy, now):
        return eng.on_measurement_report(ctx, rep, policy.observe(rep), policy, now, period)

    def make_report(t):
        return MeasurementReport(1, t, MeasurementEntry(0, -90.0, -11.0),
                                 (MeasurementEntry(1, -85.0, -12.0),), -100.0)

    ok = True
    for ttt in TTT_VALUES_MS:
        policy = Scripted(ParamPair(ttt, 0))
        ctx = eng.HandoverContext(1, 0)
        n = ttt // 40 + 4
        decided_at = None
        for i in range(n):
            now = i * period
            if ctx.phase != eng.EXECUTING and on_report(ctx, make_report(now), policy, now):
                decided_at = now
                break
        expected = math.ceil(ttt / 1000.0 / period) * period
        ok &= decided_at is not None and abs(decided_at - expected) < 1e-12

        # one violating report right before expiry postpones by a full TTT
        if ttt >= 80:
            ctx = eng.HandoverContext(1, 0)
            violate_at = ttt // 80  # report index strictly inside the window
            decided_at = None
            for i in range(3 * n + 4):
                now = i * period
                policy.levels = {0: -90.0, 1: -95.0 if i == violate_at else -85.0}
                if ctx.phase != eng.EXECUTING and on_report(ctx, make_report(now), policy, now):
                    decided_at = now
                    break
            restart = (violate_at + 1) * period
            ok &= decided_at is not None and abs(decided_at - (restart + expected)) < 1e-12
    report(7, "TTT fires at first report past the window and resets on violations",
           ok, f"(exhaustive over {len(TTT_VALUES_MS)} values)")


def test_criterion_8_qtable_bound():
    rng = np.random.default_rng(88)
    table = QTable(0)
    for _ in range(100_000):
        pair = ParamPair(
            TTT_VALUES_MS[int(rng.integers(len(TTT_VALUES_MS)))],
            HYST_VALUES_DB[int(rng.integers(len(HYST_VALUES_DB)))],
        )
        update_qtable(table, pair, float(rng.uniform(0, 1)))
    ok = len(table.entries) <= PARAM_GRID_SIZE and all(0.0 <= q <= 1.0 for q in table.entries.values())
    report(8, "Q-table bounded by the 496-pair grid with values in [0,1]",
           ok, f"({len(table.entries)} entries)")


def test_criterion_9_directional_end_to_end():
    start = time.time()
    seeds = range(30)
    results = {}
    for policy in ("lim2", "greedy_rsrp", "fixed_a3"):
        results[policy] = [
            run(corridor_scenario(seed=s, policy=policy)).kpis for s in seeds
        ]
    pp_wins = thr_wins = 0
    for l, g in zip(results["lim2"], results["greedy_rsrp"]):
        pp_wins += l.ping_pong_rate * l.ho_decisions < g.ping_pong_rate * g.ho_decisions
        thr_wins += l.mean_throughput_mbps > g.mean_throughput_mbps
    lim2_failures = sum(k.ho_failures for k in results["lim2"])
    lim2_decisions = sum(k.ho_decisions for k in results["lim2"])
    fixed_failures = sum(k.ho_failures for k in results["fixed_a3"])
    fixed_decisions = sum(k.ho_decisions for k in results["fixed_a3"])
    lim2_rate = lim2_failures / lim2_decisions if lim2_decisions else 0.0
    fixed_rate = fixed_failures / fixed_decisions if fixed_decisions else 0.0
    elapsed = time.time() - start
    ok = pp_wins >= 24 and thr_wins >= 24 and lim2_rate <= fixed_rate and elapsed < 120.0
    report(9, "corridor: ping-pong/throughput beat greedy in >=80% of seeds, failures not above fixed A3",
           ok, f"(pp {pp_wins}/30, thr {thr_wins}/30, fail {lim2_rate:.3f} vs {fixed_rate:.3f}, {elapsed:.1f}s)")


def test_criterion_10_convergence_shape():
    start = time.time()
    stabilized = 0
    for seed in range(20):
        scenario = corridor_scenario(seed=seed, policy="lim2", sim_duration_s=120.0)
        series = np.asarray(run(scenario).kpis.plr_series)
        early = float(np.var(series[:30]))
        late = float(np.var(series[-30:]))
        stabilized += late < early
    elapsed = time.time() - start
    ok = stabilized >= 16 and elapsed < 120.0
    report(10, "120 s loss series: final-30s variance below first-30s in >=80% of seeds",
           ok, f"({stabilized}/20 seeds, {elapsed:.1f}s)")


def test_criterion_11_determinism(tmp_path):
    scenario = corridor_scenario(sim_duration_s=4.0, seed=5)
    path = tmp_path / "corridor.ini"
    path.write_text(dump_scenario(scenario))
    outputs = {}
    for label in ("first", "second"):
        out = str(tmp_path / label)
        assert cli.main(["run", "--scenario", str(path), "--out", out]) == 0
        with open(f"{out}/kpis.csv", "rb") as ka, open(f"{out}/events.csv", "rb") as ea:
            outputs[label] = (ka.read(), ea.read())
    repeat_ok = outputs["first"] == outputs["second"]

    sweeps = {}
    for jobs in (1, 2):
        out = str(tmp_path / f"jobs{jobs}")
        code = cli.main([
            "sweep", "--scenario", str(path), "--seeds", "0:3", "--speeds", "200",
            "--policies", "lim2", "--jobs", str(jobs), "--out", out,
        ])
        assert code == 0
        with open(f"{out}/sweep.csv", "rb") as fh:
            sweeps[jobs] = fh.read()
    jobs_ok = sweeps[1] == sweeps[2]
    report(11, "byte-identical CSVs across invocations and --jobs values",
           repeat_ok and jobs_ok)
