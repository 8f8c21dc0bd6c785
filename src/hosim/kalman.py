"""Two-state Kalman filter tracking per-(UE, cell) RSRP and ambient noise.

The state is the pair (estimated RSRP dBm, estimated ambient noise dBm)
with a full 2x2 covariance.  Prediction is deterministic (process noise
enters through Q only), and the identity prediction and measurement
matrices are left out.  One formula, _innovate, moves an estimate
toward a measurement on plain floats; the reference step and the
per-(UE, cell) streams both use it, so they agree bit for bit.
combine_state squashes a posterior state into a single (0, 1) quality
score that rises with signal and falls with noise.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .rl import sigmoid

RSRP_ANCHOR_DBM = -90.0
RSRP_SCALE_DB = 10.0
NOISE_ANCHOR_DBM = -100.0
NOISE_SCALE_DB = 10.0
STREAM_EVICTION_S = 10.0
_PSD_TOLERANCE = -1e-9


@dataclass
class KalmanState:
    """State estimate x (2-vector) and its covariance P (2x2)."""

    x: np.ndarray
    P: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float).reshape(2)
        self.P = np.asarray(self.P, dtype=float).reshape(2, 2)

    def validate(self) -> None:
        if not np.all(np.isfinite(self.x)):
            raise ValueError("state vector must be finite")
        if not np.allclose(self.P, self.P.T, atol=1e-9):
            raise ValueError("covariance must be symmetric")
        if np.linalg.eigvalsh(self.P).min() < _PSD_TOLERANCE:
            raise ValueError("covariance must be positive semi-definite")


@dataclass
class KalmanParams:
    """Process noise Q, measurement noise R and initial covariance P0."""

    Q: np.ndarray = field(default_factory=lambda: np.diag([0.04, 0.04]))
    R: np.ndarray = field(default_factory=lambda: np.diag([4.0, 4.0]))
    P0: np.ndarray = field(default_factory=lambda: np.eye(2))

    def __post_init__(self):
        for name in ("Q", "R", "P0"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float).reshape(2, 2))


def predict(state: KalmanState, params: KalmanParams) -> KalmanState:
    """A priori estimate under identity dynamics: x' = x, P' = P + Q."""
    return KalmanState(state.x, state.P + params.Q)


def gain(P_prior: np.ndarray, params: KalmanParams) -> np.ndarray:
    """Kalman gain K = P' (P' + R)^-1."""
    # Solve (P' + R)^T K^T = P'^T instead of forming the inverse.
    return np.linalg.solve((P_prior + params.R).T, P_prior.T).T


def update(prior: KalmanState, z, params: KalmanParams) -> KalmanState:
    """A posteriori estimate from a 2-vector measurement."""
    z = np.asarray(z, dtype=float).reshape(2)
    if not np.all(np.isfinite(z)):
        raise ValueError("measurement must be finite")
    return _correct(prior, gain(prior.P, params), z)


def _innovate(x, k, z) -> tuple[float, float]:
    """x + K (z - x) on floats, with K given row-major as (k00, k01, k10, k11)."""
    k00, k01, k10, k11 = k
    d0, d1 = z[0] - x[0], z[1] - x[1]
    return (x[0] + (k00 * d0 + k01 * d1), x[1] + (k10 * d0 + k11 * d1))


def _correct(prior: KalmanState, K: np.ndarray, z: np.ndarray) -> KalmanState:
    x = _innovate(prior.x.tolist(), K.ravel().tolist(), z.tolist())
    P = (np.eye(2) - K) @ prior.P
    return KalmanState(x, (P + P.T) / 2.0)


def step(state: KalmanState, z, params: KalmanParams) -> KalmanState:
    """Per-measurement entry point: predict then update."""
    return update(predict(state, params), z, params)


def initial_state(z, params: KalmanParams) -> KalmanState:
    """Seed a stream from its first measurement with covariance P0."""
    return KalmanState(np.asarray(z, dtype=float).reshape(2).copy(), params.P0.copy())


def combine_state(x) -> float:
    """Squash (RSRP, noise) estimates into a single (0, 1) quality score.

    Both components are rescaled through anchored sigmoids; the noise
    term enters as its complement so that louder ambient noise lowers
    the score.  Strictly increasing in RSRP, strictly decreasing in noise.
    """
    rsrp_est, noise_est = float(x[0]), float(x[1])
    a = sigmoid((rsrp_est - RSRP_ANCHOR_DBM) / RSRP_SCALE_DB)
    b = sigmoid((noise_est - NOISE_ANCHOR_DBM) / NOISE_SCALE_DB)
    return sigmoid(a + (1.0 - b) - 1.0)


class _GainTable:
    """The gain of each stream age for one (Q, R, P0), solved on a shared
    covariance until that covariance stops changing: from its fixed point
    on, every older age reuses the last gain."""

    def __init__(self, params: KalmanParams):
        self.params = params
        self.gains: list[tuple[float, float, float, float]] = []
        self.converged = False
        self._shared = initial_state((0.0, 0.0), params)

    def gain(self, n: int) -> tuple[float, float, float, float]:
        """Gain of a stream's (n+1)-th update, solving the table up to it."""
        while len(self.gains) <= n and not self.converged:
            prior = predict(self._shared, self.params)
            K = gain(prior.P, self.params)
            self.gains.append(tuple(K.ravel().tolist()))
            shared = _correct(prior, K, prior.x)
            # A covariance equal to the last one yields the same prior and
            # so the same gain for every later age.
            self.converged = np.array_equal(shared.P, self._shared.P)
            self._shared = shared
        return self.gains[min(n, len(self.gains) - 1)]


# One gain table per (Q, R, P0) in a process, keyed by the arrays' bytes:
# every lim2 run with the default noise covariances shares one.  A table's
# gains depend on (Q, R, P0) alone, so which streams solve them changes no
# estimate.
_GAIN_TABLES: dict[bytes, _GainTable] = {}


def _gain_table(params: KalmanParams) -> _GainTable:
    key = params.Q.tobytes() + params.R.tobytes() + params.P0.tobytes()
    table = _GAIN_TABLES.get(key)
    if table is None:
        table = _GAIN_TABLES[key] = _GainTable(params)
    return table


class KalmanStreams:
    """Lazily created per-(UE, cell) filter streams with idle eviction.

    A stream appears on the first measurement of its key and is dropped
    after STREAM_EVICTION_S without one.  With constant Q, R and P0 the
    covariance depends only on a stream's age, so a stream keeps just
    its estimate as a float pair, its update count and its last-seen
    time.  Each age's gain comes from the process's gain table for
    (Q, R, P0), shared by every KalmanStreams with equal arrays and
    solved only up to the covariance's fixed point, whose gain every
    older age reuses.  The estimates therefore equal initial_state and
    repeated step bit for bit.  One table holds every stream in recency
    order, oldest first, so eviction pops from the front.  A gain already
    solved is read from the gain table, and past the fixed point the last
    gain is; the table's ``gain`` is called only to extend it.  Eviction
    runs at the first observation of each instant: times must not
    decrease, so no stream goes idle between two observations at one
    instant, and that drops exactly the streams that evicting after every
    observation drops.  Single-threaded only.
    """

    def __init__(self, params: KalmanParams):
        self.params = params
        self._states: OrderedDict[tuple[int, int], tuple[tuple[float, float], int, float]] = OrderedDict()
        self._table = _gain_table(params)
        self._gains = self._table.gains
        self._evicted_at: float | None = None

    def observe(self, key: tuple[int, int], z, now: float) -> tuple[float, float]:
        states, gains = self._states, self._gains
        x, n, _ = states.get(key, (None, -1, None))
        if x is None:
            x = (float(z[0]), float(z[1]))
        else:
            k = gains[n] if n < len(gains) else gains[-1] if self._table.converged else self._table.gain(n)
            x = _innovate(x, k, z)
        states[key] = (x, n + 1, now)
        states.move_to_end(key)
        # Later observations at the same instant age no stream, so the
        # first one's eviction stands for all of them.
        if now != self._evicted_at:
            self._evicted_at = now
            self._evict(now)
        return x

    def get(self, key: tuple[int, int]) -> tuple[float, float] | None:
        return self._states.get(key, (None,))[0]

    def _evict(self, now: float) -> None:
        while self._states:
            key, (_, _, seen) = next(iter(self._states.items()))
            if now - seen <= STREAM_EVICTION_S:
                return
            del self._states[key]
