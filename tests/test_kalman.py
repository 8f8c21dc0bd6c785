"""Filter correctness against an independently coded textbook filter,
gain convergence, and the combined quality score."""

import numpy as np
import pytest

from hosim import kalman
from hosim.kalman import (
    STREAM_EVICTION_S,
    KalmanParams,
    KalmanState,
    KalmanStreams,
    combine_state,
    gain,
    initial_state,
    predict,
    step,
    update,
)


@pytest.fixture(autouse=True)
def fresh_gain_tables(monkeypatch):
    """Each test starts with no solved gain table, so its solve counts do
    not depend on the tests run before it in the process."""
    monkeypatch.setattr(kalman, "_GAIN_TABLES", {})


def reference_filter(x0, P0, F, H, Q, R, measurements):
    """Textbook predict/update recursion, written independently of the
    implementation under test (explicit inverse, no shared helpers)."""
    x = np.array(x0, dtype=float)
    P = np.array(P0, dtype=float)
    history = []
    for z in measurements:
        x = F @ x
        P = F @ P @ F.T + Q
        S = H @ P @ H.T + R
        K = P @ H.T @ np.linalg.inv(S)
        x = x + K @ (np.asarray(z) - H @ x)
        P = (np.eye(2) - K @ H) @ P
        history.append((x.copy(), P.copy()))
    return history


def random_psd(rng, scale=1.0):
    A = rng.normal(size=(2, 2))
    return A @ A.T * scale + np.eye(2) * 1e-6


class TestPredict:
    def test_identity_propagation(self):
        params = KalmanParams(Q=np.zeros((2, 2)))
        state = KalmanState([-80.0, -95.0], np.eye(2) * 2.0)
        prior = predict(state, params)
        assert np.array_equal(prior.x, state.x)
        assert np.array_equal(prior.P, state.P)

    def test_process_noise_adds_to_covariance(self):
        params = KalmanParams(Q=np.diag([0.5, 0.25]))
        state = KalmanState([0.0, 0.0], np.eye(2))
        prior = predict(state, params)
        assert np.allclose(prior.P, np.diag([1.5, 1.25]))

    def test_state_unchanged_under_identity_dynamics(self):
        prior = predict(KalmanState([-80.0, -95.0], np.eye(2)), KalmanParams())
        assert np.allclose(prior.x, [-80.0, -95.0])


class TestUpdate:
    def test_huge_measurement_noise_ignores_measurement(self):
        params = KalmanParams(R=np.eye(2) * 1e9)
        prior = KalmanState([-80.0, -95.0], np.eye(2))
        post = update(prior, [0.0, 0.0], params)
        assert np.allclose(post.x, prior.x, atol=1e-6)

    def test_tiny_measurement_noise_trusts_measurement(self):
        params = KalmanParams(R=np.eye(2) * 1e-9)
        prior = KalmanState([0.0, 0.0], np.eye(2))
        post = update(prior, [-70.0, -100.0], params)
        assert np.allclose(post.x, [-70.0, -100.0], atol=1e-6)

    def test_hand_evaluated_update(self):
        params = KalmanParams(R=np.eye(2))
        prior = KalmanState([0.0, 0.0], np.eye(2))
        K = gain(prior.P, params)
        assert np.allclose(K, np.eye(2) * 0.5, atol=1e-12)
        post = update(prior, [2.0, 4.0], params)
        assert np.allclose(post.x, [1.0, 2.0], atol=1e-12)
        assert np.allclose(post.P, np.eye(2) * 0.5, atol=1e-12)

    def test_non_finite_measurement_rejected(self):
        with pytest.raises(ValueError):
            update(KalmanState([0.0, 0.0], np.eye(2)), [float("nan"), 0.0], KalmanParams())

    def test_singular_innovation_surfaces(self):
        # Degenerate prior covariance and measurement noise make H P H^T + R
        # singular; the numerical error propagates to the caller.
        params = KalmanParams(R=np.zeros((2, 2)))
        with pytest.raises(np.linalg.LinAlgError):
            update(KalmanState([0.0, 0.0], np.zeros((2, 2))), [0.0, 0.0], params)


class TestStep:
    def test_constant_measurement_converges(self):
        params = KalmanParams()
        state = initial_state([-72.0, -100.0], params)
        for _ in range(200):
            state = step(state, [-72.0, -100.0], params)
        assert abs(state.x[0] + 72.0) < 0.5

    def test_gain_independent_of_initial_covariance(self):
        rng = np.random.default_rng(11)
        params_a = KalmanParams(P0=np.eye(2))
        params_b = KalmanParams(P0=np.eye(2) * 100.0)
        z0 = [-80.0, -100.0]
        a = initial_state(z0, params_a)
        b = initial_state(z0, params_b)
        for _ in range(100):
            z = [-80.0 + rng.normal(0, 2), -100.0 + rng.normal(0, 2)]
            a = step(a, z, params_a)
            b = step(b, z, params_b)
        gain_a = gain(predict(a, params_a).P, params_a)
        gain_b = gain(predict(b, params_b).P, params_b)
        assert np.max(np.abs(gain_a - gain_b)) < 1e-6

    def test_posterior_variance_monotone_without_process_noise(self):
        params = KalmanParams(Q=np.zeros((2, 2)), R=np.eye(2) * 4.0)
        rng = np.random.default_rng(2)
        state = initial_state([-80.0, -100.0], params)
        variances = []
        for _ in range(50):
            state = step(state, [-80.0 + rng.normal(0, 2), -100.0 + rng.normal(0, 2)], params)
            variances.append(state.P[0, 0])
        assert all(b <= a + 1e-12 for a, b in zip(variances, variances[1:]))

    def test_matches_reference_filter(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            Q = random_psd(rng, 0.1)
            R = random_psd(rng, 2.0) + np.eye(2)
            P0 = random_psd(rng, 1.0)
            params = KalmanParams(Q=Q, R=R, P0=P0)
            x0 = rng.normal(-85.0, 5.0, size=2)
            measurements = rng.normal(-85.0, 3.0, size=(30, 2))
            state = KalmanState(x0.copy(), P0.copy())
            expected = reference_filter(x0, P0, np.eye(2), np.eye(2), Q, R, measurements)
            for z, (ex, eP) in zip(measurements, expected):
                state = step(state, z, params)
                assert np.max(np.abs(state.x - ex)) < 1e-9
                assert np.max(np.abs(state.P - eP)) < 1e-9

    def test_covariance_stays_symmetric_psd(self):
        rng = np.random.default_rng(4)
        params = KalmanParams(Q=random_psd(rng, 0.05), R=random_psd(rng, 3.0) + np.eye(2))
        state = initial_state([-80.0, -100.0], params)
        for _ in range(300):
            state = step(state, rng.normal(-80.0, 4.0, size=2), params)
            state.validate()


class TestCombineState:
    def test_anchor_midpoint(self):
        assert combine_state([-90.0, -100.0]) == pytest.approx(0.5)

    def test_increasing_in_signal(self):
        for noise in (-120.0, -100.0, -80.0):
            assert combine_state([-70.0, noise]) > combine_state([-90.0, noise])

    def test_decreasing_in_noise(self):
        for rsrp in (-70.0, -90.0, -110.0):
            assert combine_state([rsrp, -120.0]) > combine_state([rsrp, -80.0])

    def test_open_unit_interval(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            value = combine_state(rng.uniform(-200, 50, size=2))
            assert 0.0 < value < 1.0


class TestStreams:
    def test_lazy_creation_and_first_measurement_seed(self):
        streams = KalmanStreams(KalmanParams())
        assert streams.get((1, 0)) is None
        x = streams.observe((1, 0), [-80.0, -100.0], now=0.0)
        assert np.allclose(x, [-80.0, -100.0])

    def test_eviction_after_idle_window(self):
        streams = KalmanStreams(KalmanParams())
        streams.observe((1, 0), [-80.0, -100.0], now=0.0)
        streams.observe((1, 1), [-90.0, -100.0], now=9.0)
        assert streams.get((1, 0)) is not None
        streams.observe((1, 1), [-90.0, -100.0], now=10.5)
        assert streams.get((1, 0)) is None
        assert streams.get((1, 1)) is not None

    def test_reobserved_stream_moves_to_the_back(self):
        # A is older than B by first sight but newer by last sight; only B
        # has been idle past the window at t = 11.5.
        streams = KalmanStreams(KalmanParams())
        streams.observe("A", [-80.0, -100.0], now=0.0)
        streams.observe("B", [-85.0, -100.0], now=1.0)
        streams.observe("A", [-81.0, -100.0], now=5.0)
        streams.observe("C", [-90.0, -100.0], now=11.5)
        assert streams.get("B") is None
        assert streams.get("A") is not None
        assert streams.get("C") is not None

    @pytest.mark.parametrize("seed", [None, 0, 1, 2])
    def test_observe_equals_repeated_step(self, seed, monkeypatch):
        """Interleaved streams started at different times, one evicted and
        restarted, match initial_state then step bit for bit, and each
        stream age solves for its gain once."""
        params = KalmanParams()
        if seed is not None:
            rng = np.random.default_rng(seed)
            params = KalmanParams(Q=random_psd(rng, 0.1), R=random_psd(rng, 2.0) + np.eye(2), P0=random_psd(rng))
        solves, stream_solves = [], 0
        solve = np.linalg.solve
        monkeypatch.setattr(kalman.np.linalg, "solve", lambda a, b: solves.append(1) or solve(a, b))
        streams = KalmanStreams(params)
        reference, last_seen = {}, {}
        rng = np.random.default_rng(99)
        for tick in range(61):
            now = tick * 0.5
            keys = [(0, 0)]
            if now >= 5.0 and tick % 2:
                keys.append((0, 1))
            if now <= 2.0 or now >= 20.0:  # idle long enough in between to be evicted
                keys.insert(0, (1, 0))
            for key in keys:
                z = rng.normal(-85.0, 4.0, size=2)
                state = reference.get(key)
                reference[key] = initial_state(z, params) if state is None else step(state, z, params)
                last_seen[key] = now
                for k in [k for k, t in last_seen.items() if now - t > STREAM_EVICTION_S]:
                    del reference[k], last_seen[k]
                before = len(solves)
                assert np.array_equal(streams.observe(key, tuple(z), now), reference[key].x)
                stream_solves += len(solves) - before
            for key in [(0, 0), (0, 1), (1, 0)]:
                x = streams.get(key)
                assert (x is None) == (key not in reference)
                assert x is None or np.array_equal(x, reference[key].x)
        assert stream_solves == 60  # the oldest stream's age, not one per update

    @pytest.mark.parametrize("seed", [None, 0, 1, 2])
    def test_long_stream_equals_repeated_step(self, seed):
        """Past the shared covariance's fixed point (age 178 with the
        defaults) a stream still equals initial_state then step."""
        params = KalmanParams()
        if seed is not None:
            rng = np.random.default_rng(seed)
            params = KalmanParams(Q=random_psd(rng, 0.1), R=random_psd(rng, 2.0) + np.eye(2), P0=random_psd(rng))
        streams = KalmanStreams(params)
        rng = np.random.default_rng(7)
        state = None
        for tick in range(600):
            z = rng.normal(-85.0, 4.0, size=2)
            state = initial_state(z, params) if state is None else step(state, z, params)
            assert np.array_equal(streams.observe((0, 0), tuple(z), tick * 0.04), state.x)

    def test_gain_table_stops_at_the_fixed_point(self, monkeypatch):
        solves = []
        solve = np.linalg.solve
        monkeypatch.setattr(kalman.np.linalg, "solve", lambda a, b: solves.append(1) or solve(a, b))
        streams = KalmanStreams(KalmanParams())
        rng = np.random.default_rng(5)
        for tick in range(1000):
            streams.observe((0, 0), tuple(rng.normal(-85.0, 4.0, size=2)), tick * 0.04)
        assert len(streams._gains) == 178
        assert len(solves) == 178
        for tick in range(1000, 1500):
            streams.observe((0, 0), tuple(rng.normal(-85.0, 4.0, size=2)), tick * 0.04)
        assert len(streams._gains) == 178
        assert len(solves) == 178

    def test_second_streams_reuse_the_solved_table(self, monkeypatch):
        """A KalmanStreams built from equal (Q, R, P0) arrays takes the
        first one's gain table, solves nothing, and still equals repeated
        step bit for bit past the fixed point at age 178."""
        KalmanStreams(KalmanParams())._table.gain(500)
        solves = []
        solve = np.linalg.solve
        monkeypatch.setattr(kalman.np.linalg, "solve", lambda a, b: solves.append(1) or solve(a, b))
        params = KalmanParams()
        streams = KalmanStreams(params)
        assert streams._table.converged and len(streams._gains) == 178
        rng = np.random.default_rng(11)
        state = None
        for tick in range(400):
            z = rng.normal(-85.0, 4.0, size=2)
            state = initial_state(z, params) if state is None else step(state, z, params)
            assert np.array(streams.observe((0, 0), tuple(z), tick * 0.04)).tobytes() == state.x.tobytes()
        # The reference steps solved 399 gains; the streams solved none.
        assert len(solves) == 399
        assert len(kalman._GAIN_TABLES) == 1
        other = KalmanParams(R=np.diag([4.0, 5.0]))
        assert KalmanStreams(other)._gains is not streams._gains


class EvictAfterEveryObserve(KalmanStreams):
    """The streams as they were before eviction ran once per instant: every
    observation reads its gain from the gain table and then evicts."""

    def observe(self, key, z, now):
        x, n, _ = self._states.get(key, (None, -1, None))
        x = (float(z[0]), float(z[1])) if x is None else kalman._innovate(x, self._table.gain(n), z)
        self._states[key] = (x, n + 1, now)
        self._states.move_to_end(key)
        self._evict(now)
        return x


class TestEvictionPerInstant:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_equals_evicting_after_every_observe(self, seed, monkeypatch):
        """Many observations per instant, some instants after an idle gap
        longer than STREAM_EVICTION_S, and one stream observed past the
        fixed point of age 178: every estimate and the whole table, its
        order included, equal the oracle's after every observation, and
        the streams evict once per instant."""
        evictions = []
        evict = KalmanStreams._evict
        monkeypatch.setattr(KalmanStreams, "_evict", lambda self, now: evictions.append(self) or evict(self, now))
        streams, oracle = KalmanStreams(KalmanParams()), EvictAfterEveryObserve(KalmanParams())
        rng = np.random.default_rng(seed)
        now, instants, observations, evicted = 0.0, 0, 0, 0
        for tick in range(500):
            # After an idle gap every stream is stale but the one observed
            # first: it continues, the others start again.
            now += 30.0 if tick % 211 == 210 else 10.5 if tick % 97 == 96 else 0.04
            instants += 1
            keys = [(0, 0)] + [(0, int(k)) for k in rng.integers(1, 40, size=int(rng.integers(1, 25)))]
            keys += keys[1 : int(rng.integers(1, 5))]  # some keys twice at one instant
            for key in keys:
                z = tuple(rng.normal(-85.0, 4.0, size=2))
                before = len(oracle._states) + (key not in oracle._states)
                x = streams.observe(key, z, now)
                assert np.array(x).tobytes() == np.array(oracle.observe(key, z, now)).tobytes()
                assert list(streams._states.items()) == list(oracle._states.items())
                evicted += before - len(oracle._states)
                observations += 1
        assert streams._states[(0, 0)][1] == 499 > 178 and streams._table.converged
        assert evicted > 100
        assert evictions.count(streams) == instants
        assert evictions.count(oracle) == observations
